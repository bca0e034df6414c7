package trace

import (
	"encoding/binary"
	"math"
	"runtime"
	"testing"

	"specguard/internal/asm"
	"specguard/internal/interp"
)

// traceSrc mixes every replayed construct: conditional branches,
// guarded ops (including guarded memory), loads/stores, a switch, and
// a call/ret pair.
const traceSrc = `
func main:
entry:
	li r1, 0
	li r8, 2048
loop:
	and r2, r1, 3
	switch r2, t0, t1, t2, t3
t0:
	lw r3, 0(r8)
	add r3, r3, 1
	sw r3, 0(r8)
	j step
t1:
	call helper
aftercall:
	j step
t2:
	and r5, r1, 1
	peq p1, r5, 0
	(p1) add r4, r4, 5
	(!p1) sw r4, 8(r8)
	j step
t3:
	xor r6, r6, 9
step:
	add r1, r1, 1
	blt r1, 120, loop
exit:
	sw r4, 16(r8)
	halt

func helper:
body:
	add r7, r7, 3
	slt r5, r7, 60
	peq p2, r5, 1
	(p2) lw r6, 0(r8)
	ret
`

func captureSrc(t testing.TB, src string) (*Trace, *interp.Code) {
	t.Helper()
	code, err := interp.Predecode(asm.MustParse(src), nil)
	if err != nil {
		t.Fatal(err)
	}
	tr, _, err := Capture(code, interp.Options{}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	return tr, code
}

// TestReplayMatchesLive replays the trace in lockstep with the
// reference interpreter and demands event-for-event identity, with the
// default blocks and with blocks so small that every stream is a chain
// of many.
func TestReplayMatchesLive(t *testing.T) {
	tr, code := captureSrc(t, traceSrc)
	checkReplay(t, tr, code)
	t.Run("blocks-16", func(t *testing.T) {
		withBlockShift(t, 4)
		small, code := captureSrc(t, traceSrc)
		if len(small.mem.blocks) < 2 || len(small.ctrl.blocks) < 2 {
			t.Fatalf("varint streams in %d/%d blocks (mem/ctrl), want chains", len(small.mem.blocks), len(small.ctrl.blocks))
		}
		if small.SizeBytes() != tr.SizeBytes() {
			t.Errorf("SizeBytes = %d with 16-byte blocks, %d with the default", small.SizeBytes(), tr.SizeBytes())
		}
		checkReplay(t, small, code)
	})
}

// checkReplay replays tr in lockstep with the reference interpreter.
func checkReplay(t *testing.T, tr *Trace, code *interp.Code) {
	t.Helper()
	ref, err := interp.New(code.Program(), nil, interp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	rd := tr.NewReader()
	var ev interp.Event
	for i := int64(0); ; i++ {
		evR, errR := ref.Step()
		ok, err := rd.NextInto(&ev)
		if err != nil {
			t.Fatalf("event %d: replay error: %v", i, err)
		}
		if errR == interp.ErrHalted {
			if ok {
				t.Fatalf("event %d: replay continued past halt", i)
			}
			if i != tr.Events() {
				t.Fatalf("replayed %d events, trace has %d", i, tr.Events())
			}
			return
		}
		if errR != nil {
			t.Fatal(errR)
		}
		if !ok {
			t.Fatalf("event %d: replay ended early", i)
		}
		// Flat is a replay-acceleration hint the tree interpreter never
		// sets; verify it names the executed instruction, then exclude
		// it from the identity check.
		if code.Flat(ev.Flat).Instr != ev.Instr {
			t.Fatalf("event %d: Flat hint %d does not name the executed instruction", i, ev.Flat)
		}
		ev.Flat = evR.Flat
		if !evR.SameArch(&ev) {
			t.Fatalf("event %d differs:\nlive:   %+v\nreplay: %+v", i, evR, ev)
		}
	}
}

// withBlockShift chains streams from 1<<shift-byte blocks until t ends.
func withBlockShift(t *testing.T, shift uint) {
	orig := blockShift
	blockShift = shift
	t.Cleanup(func() { blockShift = orig })
}

// TestStreamBlockBoundaries: varints of every length and bits read back
// exactly across block boundaries, no varint straddles two blocks, and
// trimming leaves each stream its payload and no more.
func TestStreamBlockBoundaries(t *testing.T) {
	withBlockShift(t, 4)
	var vals []int64
	for i := 0; i < 40; i++ {
		vals = append(vals, 0, -1, 1<<(i%63), -(1 << (i % 63)), math.MaxInt64, math.MinInt64)
	}
	var s varints
	size := 0
	for _, v := range vals {
		s.putVarint(v)
		size += len(binary.AppendVarint(nil, v))
	}
	s.trim()
	if s.size() != size {
		t.Errorf("varint stream holds %d bytes, want its payload %d", s.size(), size)
	}
	if len(s.blocks) < 2 {
		t.Fatalf("%d blocks, want a chain", len(s.blocks))
	}
	var c cursor
	for i, want := range vals {
		got, n := binary.Varint(c.rest(&s))
		if n <= 0 || got != want {
			t.Fatalf("varint %d = %d (n %d), want %d", i, got, n, want)
		}
		c.off += n
	}
	if rest := c.rest(&s); len(rest) != 0 {
		t.Errorf("%d bytes left after the last varint", len(rest))
	}

	var b bits
	const n = 1000 // 7 full 128-bit blocks and a partial eighth
	for i := 0; i < n; i++ {
		b.append(i%3 == 0 || i%7 == 0)
	}
	b.trim()
	if len(b.blocks) != 8 || b.size() != 8*((n+63)/64) {
		t.Errorf("%d bits in %d blocks of %d bytes in all, want 8 blocks and %d bytes", n, len(b.blocks), b.size(), 8*((n+63)/64))
	}
	for i := int64(0); i < n; i++ {
		if got, want := b.get(i), i%3 == 0 || i%7 == 0; got != want {
			t.Fatalf("bit %d = %v, want %v", i, got, want)
		}
	}
}

// replayKernel runs 400k events, 100k of them memory accesses.
const replayKernel = `
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
	blt r1, 50000, loop
exit:
	halt
`

// TestCaptureAllocatesItsSize: a capture allocates its packed payload
// plus at most one block per stream (the trimmed last blocks), beside
// a small machine; streams that grew by re-copying would leave about
// their own size again in garbage. That holds with an empty memory and
// with a 16-page input image alike: a machine started from an image
// shares its pages and copies only the one the kernel writes.
func TestCaptureAllocatesItsSize(t *testing.T) {
	code, err := interp.Predecode(asm.MustParse(replayKernel), nil)
	if err != nil {
		t.Fatal(err)
	}
	const memBytes = 1 << 16
	img, err := interp.NewImage(interp.Options{MemBytes: memBytes}, func(m interp.Memory) error {
		for addr := int64(0); addr < memBytes; addr += 512 {
			if err := m.WriteWord(addr, addr+1); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, opts := range []interp.Options{{MemBytes: memBytes}, {Image: img}} {
		if _, _, err := Capture(code, opts, nil, nil); err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		tr, _, err := Capture(code, opts, nil, nil)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		// The machine: its struct, page table and the one page the kernel
		// writes; the Trace and its block lists.
		const machine = 8 << 10
		got := after.TotalAlloc - before.TotalAlloc
		if limit := uint64(tr.SizeBytes() + 4<<blockShift + machine); got > limit || tr.SizeBytes() < 16<<blockShift {
			t.Errorf("image %v: capture of a %d-byte trace allocated %d bytes, want ≤ %d", opts.Image != nil, tr.SizeBytes(), got, limit)
		}
	}
}

func TestReaderReset(t *testing.T) {
	tr, _ := captureSrc(t, traceSrc)
	rd := tr.NewReader()
	drain := func() int64 {
		var n int64
		var ev interp.Event
		for {
			ok, err := rd.NextInto(&ev)
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				return n
			}
			n++
		}
	}
	first := drain()
	rd.Reset()
	second := drain()
	if first != second || first != tr.Events() {
		t.Fatalf("drained %d then %d events, trace has %d", first, second, tr.Events())
	}
}

// TestCorruptTraceDetected flips one branch-outcome bit and demands the
// replayed stream diverge from a fresh architectural run — the property
// the fuzzer's frontend-replay check relies on.
func TestCorruptTraceDetected(t *testing.T) {
	tr, code := captureSrc(t, traceSrc)
	if tr.branch.n == 0 {
		t.Fatal("trace recorded no branches")
	}
	tr.branch.blocks[0][0] ^= 1 // first branch outcome

	ref, err := interp.New(code.Program(), nil, interp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	rd := tr.NewReader()
	var ev interp.Event
	for i := 0; ; i++ {
		evR, errR := ref.Step()
		ok, err := rd.NextInto(&ev)
		if err != nil {
			return // divergence surfaced as a stream-exhaustion error
		}
		if errR == interp.ErrHalted || !ok {
			if (errR == interp.ErrHalted) != !ok {
				return // one side ended early: divergence detected
			}
			t.Fatal("corrupted trace replayed to completion in lockstep with the live run")
		}
		if errR != nil {
			t.Fatal(errR)
		}
		ev.Flat = evR.Flat // hint field, excluded from identity (see TestReplayMatchesLive)
		if !evR.SameArch(&ev) {
			return // divergence detected
		}
	}
}

func TestTraceCompactness(t *testing.T) {
	tr, _ := captureSrc(t, traceSrc)
	events := tr.Events()
	if events == 0 {
		t.Fatal("empty trace")
	}
	// The packed trace must be dramatically smaller than an Event
	// slice; ~1.5 bits/instr here vs >100 bytes/instr unpacked.
	if got, limit := tr.SizeBytes(), int(events); got > limit {
		t.Fatalf("trace is %d bytes for %d events; want <= 1 byte/event", got, events)
	}
}

// BenchmarkTraceReplay measures the pure replay rate: how fast the
// packed trace reconstructs the committed-event stream.
func BenchmarkTraceReplay(b *testing.B) {
	code, err := interp.Predecode(asm.MustParse(replayKernel), nil)
	if err != nil {
		b.Fatal(err)
	}
	tr, _, err := Capture(code, interp.Options{}, nil, nil)
	if err != nil {
		b.Fatal(err)
	}
	rd := tr.NewReader()
	b.ReportAllocs()
	b.ResetTimer()
	var ev interp.Event
	for i := 0; i < b.N; i++ {
		rd.Reset()
		for {
			ok, err := rd.NextInto(&ev)
			if err != nil {
				b.Fatal(err)
			}
			if !ok {
				break
			}
		}
	}
	b.ReportMetric(float64(tr.Events())*float64(b.N)/b.Elapsed().Seconds()/1e6, "Minstr/s")
}
