package pipeline

import (
	"context"
	"runtime"
	"sync"
	"testing"
	"unsafe"

	"specguard/internal/asm"
	"specguard/internal/interp"
	"specguard/internal/machine"
	"specguard/internal/predict"
)

// allocKernel mixes ALU, memory, taken/not-taken branches and an
// unconditional jump — every dispatch path of the hot loop.
const allocKernel = `
func main:
entry:
	li r1, 0
	li r5, 9000
loop:
	lw r3, 0(r5)
	add r3, r3, 1
	sw r3, 0(r5)
	and r2, r1, 7
	beq r2, 0, sp
pl:
	add r4, r4, 1
	j next
sp:
	add r6, r6, 1
next:
	add r1, r1, 1
	blt r1, 20000, loop
exit:
	halt
`

// recordTrace executes the kernel architecturally and returns its
// committed event stream.
func recordTrace(t testing.TB, src string) []interp.Event {
	t.Helper()
	m, err := interp.New(asm.MustParse(src), nil, interp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var events []interp.Event
	for {
		ev, err := m.Step()
		if err == interp.ErrHalted {
			return events
		}
		if err != nil {
			t.Fatal(err)
		}
		events = append(events, ev)
	}
}

// TestSteadyStateZeroAllocs is the regression test for the event-driven
// hot loop: replaying a ~180k-instruction trace through a warmed
// Pipeline must not allocate at all. This pins both the old
// `fetchBuf = fetchBuf[1:]` reslice bug (which forced append re-growth
// per fetched instruction) and any future per-instruction allocation
// (entry churn, producer slices, map-based disambiguation).
func TestSteadyStateZeroAllocs(t *testing.T) {
	events := recordTrace(t, allocKernel)
	if len(events) < 100_000 {
		t.Fatalf("trace too small to be meaningful: %d events", len(events))
	}
	src := NewSliceSource(events)
	pipe, err := New(Config{Model: machine.R10000(), Predictor: predict.NewTwoBit(512)})
	if err != nil {
		t.Fatal(err)
	}
	// Warm run: sizes the wheel, ready queues, free list and
	// disambiguation table to their high-water marks.
	if _, err := pipe.Run(src); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(3, func() {
		src.Reset()
		if _, err := pipe.Run(src); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 0 {
		t.Errorf("steady-state Run allocated %.1f objects per run over %d instructions, want 0",
			allocs, len(events))
	}
}

// TestReusedPipelineMatchesFreshRun guards the machinery reset: a
// recycled Pipeline must produce the same cycle count as a fresh one
// once its predictor and caches see the same history. (Caches and
// predictor deliberately persist across Run, as before; here the
// second fresh pipeline replays the warmup too.)
func TestReusedPipelineMatchesFreshRun(t *testing.T) {
	events := recordTrace(t, allocKernel)

	reused, err := New(Config{Model: machine.R10000(), Predictor: predict.NewTwoBit(512)})
	if err != nil {
		t.Fatal(err)
	}
	src := NewSliceSource(events)
	if _, err := reused.Run(src); err != nil {
		t.Fatal(err)
	}
	src.Reset()
	second, err := reused.Run(src)
	if err != nil {
		t.Fatal(err)
	}

	fresh, err := New(Config{Model: machine.R10000(), Predictor: predict.NewTwoBit(512)})
	if err != nil {
		t.Fatal(err)
	}
	src2 := NewSliceSource(events)
	if _, err := fresh.Run(src2); err != nil {
		t.Fatal(err)
	}
	src2.Reset()
	freshSecond, err := fresh.Run(src2)
	if err != nil {
		t.Fatal(err)
	}

	if second.Cycles != freshSecond.Cycles || second.Committed != freshSecond.Committed {
		t.Errorf("reused pipeline diverged: cycles %d vs %d, committed %d vs %d",
			second.Cycles, freshSecond.Cycles, second.Committed, freshSecond.Committed)
	}
}

// TestRunReusesReleasedWindow: once a run has released its decode
// window, a fresh Pipeline's Run takes it from the free list instead of
// allocating the window's ~190 KB of slots again.
func TestRunReusesReleasedWindow(t *testing.T) {
	events := recordTrace(t, allocKernel)
	cfg := Config{Model: machine.R10000(), Predictor: predict.NewTwoBit(512)}
	warm, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := warm.Run(NewSliceSource(events)); err != nil {
		t.Fatal(err)
	}
	cfg.Predictor = predict.NewTwoBit(512)
	fresh, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	src := NewSliceSource(events)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := fresh.Run(src); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	chunk, _ := geometry(fresh)
	slots := uint64(2*chunk) * uint64(unsafe.Sizeof(winEvent{}))
	if got := after.TotalAlloc - before.TotalAlloc; got >= slots {
		t.Errorf("fresh Pipeline's Run allocated %d bytes, want < %d (a new window's slots)", got, slots)
	}
}

// TestFreeWindowsBounded: the free list keeps at most GOMAXPROCS
// windows however many drains release one, Run's and RunDrains' alike,
// and a GC does not empty it.
func TestFreeWindowsBounded(t *testing.T) {
	n := runtime.GOMAXPROCS(0)
	freeWindows.Lock()
	freeWindows.ws = nil
	freeWindows.Unlock()
	held := func() int {
		freeWindows.Lock()
		defer freeWindows.Unlock()
		return len(freeWindows.ws)
	}

	ws := make([]*window, 2*n+1)
	for i := range ws {
		ws[i] = getWindow(NewSliceSource(nil), 512, 32)
	}
	for _, w := range ws {
		putWindow(w)
	}
	if got := held(); got != n {
		t.Fatalf("after releasing %d windows the free list holds %d, want GOMAXPROCS = %d", len(ws), got, n)
	}
	runtime.GC()
	if got := held(); got != n {
		t.Fatalf("a GC left %d windows on the free list, want %d", got, n)
	}

	src := kernelSource(300)
	var wg sync.WaitGroup
	for i := 0; i < 2*n+1; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			pipe, err := New(Config{Model: machine.R10000(), Predictor: predict.NewTwoBit(512)})
			if err == nil {
				_, err = pipe.Run(src(t))
			}
			if err != nil {
				t.Error(err)
			}
		}()
	}
	ds := make([]Drain, 2*n+1)
	for i := range ds {
		ds[i].Open = func() (*Batch, Source, error) {
			b, err := NewBatch(batchCases(false))
			return b, src(t), err
		}
	}
	if err := RunDrains(context.Background(), ds, 2*n); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if got := held(); got > n {
		t.Errorf("free list holds %d windows, want ≤ GOMAXPROCS = %d", got, n)
	}
}

// BenchmarkPipeReplay measures the pure timing loop on a pre-recorded
// trace, excluding the assembler and interpreter that dominate
// BenchmarkPipe. This is the number the completion wheel and ready
// queues exist for.
func BenchmarkPipeReplay(b *testing.B) {
	events := recordTrace(b, allocKernel)
	src := NewSliceSource(events)
	pipe, err := New(Config{Model: machine.R10000(), Predictor: predict.NewTwoBit(512)})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src.Reset()
		if _, err := pipe.Run(src); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(0)
	b.ReportMetric(float64(len(events))*float64(b.N)/b.Elapsed().Seconds()/1e6, "Minstr/s")
}
