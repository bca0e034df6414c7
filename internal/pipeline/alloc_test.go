package pipeline

import (
	"context"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"unsafe"

	"specguard/internal/asm"
	"specguard/internal/interp"
	"specguard/internal/machine"
	"specguard/internal/predict"
	"specguard/internal/trace"
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

// recordTrace executes the kernel architecturally and returns the
// captured trace of its committed event stream.
func recordTrace(t testing.TB, src string) *trace.Trace {
	t.Helper()
	code, err := interp.Predecode(asm.MustParse(src), nil)
	if err != nil {
		t.Fatal(err)
	}
	tr, _, err := trace.Capture(code, interp.Options{}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// TestSteadyStateZeroAllocs is the regression test for the event-driven
// hot loop: replaying a ~180k-instruction trace through a warmed
// Pipeline must not allocate at all, trace decode included. This pins
// both the old `fetchBuf = fetchBuf[1:]` reslice bug (which forced
// append re-growth per fetched instruction) and any future
// per-instruction allocation (entry churn, producer slices, map-based
// disambiguation).
func TestSteadyStateZeroAllocs(t *testing.T) {
	tr := recordTrace(t, allocKernel)
	if tr.Events() < 100_000 {
		t.Fatalf("trace too small to be meaningful: %d events", tr.Events())
	}
	src := tr.NewReader()
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
			allocs, tr.Events())
	}
}

// TestReusedPipelineMatchesFreshRun guards the machinery reset: a
// recycled Pipeline must produce the same cycle count as a fresh one
// once its predictor and caches see the same history. (Caches and
// predictor deliberately persist across Run, as before; here the
// second fresh pipeline replays the warmup too.)
func TestReusedPipelineMatchesFreshRun(t *testing.T) {
	tr := recordTrace(t, allocKernel)

	reused, err := New(Config{Model: machine.R10000(), Predictor: predict.NewTwoBit(512)})
	if err != nil {
		t.Fatal(err)
	}
	src := tr.NewReader()
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
	src2 := tr.NewReader()
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
	tr := recordTrace(t, allocKernel)
	cfg := Config{Model: machine.R10000(), Predictor: predict.NewTwoBit(512)}
	warm, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := warm.Run(tr.NewReader()); err != nil {
		t.Fatal(err)
	}
	cfg.Predictor = predict.NewTwoBit(512)
	fresh, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	src := tr.NewReader()
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

// TestNewReusesReleasedLane: New takes the buffers of a lane a drain
// released instead of allocating a lane, so a warm one-lane cycle of
// New, Run and release allocates nothing at all, the window and the lane
// both coming from their free lists.
func TestNewReusesReleasedLane(t *testing.T) {
	src := recordTrace(t, allocKernel).NewReader()
	cfg := Config{Model: machine.R10000(), Predictor: predict.NewTwoBit(512)}
	DropFreeLanes()
	if _, err := RunLanes([]Config{cfg}, src); err != nil {
		t.Fatal(err)
	}
	if n := FreeLanes(); n != 1 {
		t.Fatalf("%d lanes free after a one-lane drain, want 1", n)
	}
	lane := freeLanes.items[0]
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if p != lane {
		t.Fatal("New built a lane while a released one was free")
	}
	allocs := testing.AllocsPerRun(3, func() {
		p.release()
		p, err = New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		src.Reset()
		if _, err := p.Run(src); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 0 {
		t.Errorf("New and Run on a released lane allocated %.1f objects, want 0", allocs)
	}
}

// TestFreeListsBounded: the window free list keeps at most GOMAXPROCS
// windows and the lane free list at most GOMAXPROCS × MaxBatchLanes
// lanes, however many drains release them, Run's and RunDrains' alike,
// and a GC empties neither.
func TestFreeListsBounded(t *testing.T) {
	n := runtime.GOMAXPROCS(0)
	held := func() (windows, lanes int) {
		freeWindows.mu.Lock()
		freeLanes.mu.Lock()
		defer freeWindows.mu.Unlock()
		defer freeLanes.mu.Unlock()
		return len(freeWindows.items), len(freeLanes.items)
	}
	freeWindows.mu.Lock()
	freeWindows.items = nil
	freeWindows.mu.Unlock()
	freeLanes.mu.Lock()
	freeLanes.items = nil
	freeLanes.mu.Unlock()

	ws := make([]*window, 2*n+1)
	for i := range ws {
		ws[i] = getWindow(emptySource{}, 512, 32)
	}
	for _, w := range ws {
		putWindow(w)
	}
	cfgs := make([]Config, 2*n*MaxBatchLanes+1)
	for i := range cfgs {
		cfgs[i] = Config{Model: machine.R10000(), Predictor: predict.NewTwoBit(16)}
	}
	lanes, err := newLanes(cfgs)
	if err != nil {
		t.Fatal(err)
	}
	releaseLanes(lanes)
	if w, l := held(); w != n || l != n*MaxBatchLanes {
		t.Fatalf("after releasing %d windows and %d lanes the free lists hold %d and %d, want GOMAXPROCS = %d and %d",
			len(ws), len(cfgs), w, l, n, n*MaxBatchLanes)
	}
	runtime.GC()
	if w, l := held(); w != n || l != n*MaxBatchLanes {
		t.Fatalf("a GC left %d windows and %d lanes on the free lists, want %d and %d", w, l, n, n*MaxBatchLanes)
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
		ds[i].Open = func() (Source, []Config, error) { return src(t), batchCases(false), nil }
	}
	if err := RunDrains(context.Background(), ds, 2*n); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if w, l := held(); w > n || l > n*MaxBatchLanes {
		t.Errorf("free lists hold %d windows and %d lanes, want ≤ GOMAXPROCS = %d and ≤ %d", w, l, n, n*MaxBatchLanes)
	}
}

// TestFreeListConcurrentReleaseAndNew: drains whose lanes go back to
// the free list while other workers build new ones from it each get
// Stats identical to a drain on new lanes. Run under -race, it pins that
// a lane is handed to one drain at a time.
func TestFreeListConcurrentReleaseAndNew(t *testing.T) {
	src := kernelSource(300)
	DropFreeLanes()
	want, err := RunLanes(batchCases(true), src(t))
	if err != nil {
		t.Fatal(err)
	}
	n := runtime.GOMAXPROCS(0)
	var mu sync.Mutex
	var got [][]Stats
	ds := make([]Drain, 4*n)
	for i := range ds {
		ds[i].Open = func() (Source, []Config, error) { return src(t), batchCases(true), nil }
		ds[i].Done = func(stats []Stats, _ SkipStats) {
			mu.Lock()
			got = append(got, stats)
			mu.Unlock()
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := RunDrains(context.Background(), ds[g*2*n:(g+1)*2*n], n); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if len(got) != len(ds) {
		t.Fatalf("%d of %d drains finished", len(got), len(ds))
	}
	for i, stats := range got {
		if !reflect.DeepEqual(stats, want) {
			t.Fatalf("drain %d on recycled lanes: Stats differ from a fresh batch's", i)
		}
	}
}

// BenchmarkPipeReplay measures the timing loop on a captured trace,
// excluding the assembler and the architectural run that dominate
// BenchmarkPipe. This is the number the completion wheel and ready
// queues exist for.
func BenchmarkPipeReplay(b *testing.B) {
	tr := recordTrace(b, allocKernel)
	src := tr.NewReader()
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
	b.ReportMetric(float64(tr.Events())*float64(b.N)/b.Elapsed().Seconds()/1e6, "Minstr/s")
}
