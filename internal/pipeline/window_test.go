package pipeline_test

import (
	"fmt"
	"strings"
	"testing"

	"specguard/internal/asm"
	"specguard/internal/bench"
	"specguard/internal/interp"
	"specguard/internal/machine"
	"specguard/internal/pipeline"
	"specguard/internal/predict"
	"specguard/internal/trace"
)

// Every producer of a predecoded program's event stream is a Source as
// it stands.
var (
	_ pipeline.Source = (*interp.Machine)(nil)
	_ pipeline.Source = (*interp.TaintMachine)(nil)
	_ pipeline.Source = (*trace.Reader)(nil)
)

// badFlat is a predecoded machine whose event at seq carries the flat
// index flat(ev) in place of its own.
type badFlat struct {
	*interp.Machine
	seq, n int64
	flat   func(ev *interp.Event) int32
}

func (s *badFlat) NextInto(ev *interp.Event) (bool, error) {
	ok, err := s.Machine.NextInto(ev)
	if ok && s.n == s.seq {
		ev.Flat = s.flat(ev)
	}
	s.n++
	return ok, err
}

// TestWindowRejectsMismatchedFlat: the decode window reads an event's
// operands from the instruction its Flat index names in the source's
// Code, so an event whose Flat is out of range or names another
// instruction fails the run with an error naming the event — in a
// one-lane Run and in a two-lane drain alike, and mid-drain, after
// lanes have run on earlier refills.
func TestWindowRejectsMismatchedFlat(t *testing.T) {
	code, err := interp.Predecode(asm.MustParse(`
func main:
entry:
	li r1, 0
loop:
	add r2, r2, r1
	sw r2, 0(r1)
	add r1, r1, 8
	blt r1, 8000, loop
exit:
	halt
`), nil)
	if err != nil {
		t.Fatal(err)
	}
	const seq = 2000 // past the first refill
	n := int32(code.Len())
	cases := []struct {
		name string
		flat func(ev *interp.Event) int32
		want string
	}{
		{"past-end", func(*interp.Event) int32 { return n }, "outside the source's code"},
		{"negative", func(*interp.Event) int32 { return -1 }, "outside the source's code"},
		{"other-instruction", func(ev *interp.Event) int32 { return (ev.Flat + 1) % n }, "names another instruction"},
	}
	cfg := func() pipeline.Config {
		return pipeline.Config{Model: machine.R10000(), Predictor: predict.NewTwoBit(512)}
	}
	for _, tc := range cases {
		for _, lanes := range []int{1, 2} {
			t.Run(fmt.Sprintf("%s/lanes=%d", tc.name, lanes), func(t *testing.T) {
				src := &badFlat{Machine: code.NewMachine(interp.Options{}), seq: seq, flat: tc.flat}
				cfgs := []pipeline.Config{cfg(), {Model: machine.R10000(), Predictor: predict.NewPerfect()}}
				_, err := pipeline.RunLanes(cfgs[:lanes], src)
				if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("event %d (", seq)) || !strings.Contains(err.Error(), tc.want) {
					t.Fatalf("run with a bad Flat at event %d = %v, want an error naming the event (%q)", seq, err, tc.want)
				}
			})
		}
	}
}

// TestWindowMemLastBounded: over the compress trace, which touches tens
// of thousands of distinct addresses, the shared window's
// disambiguation table holds at most chunk + horizon addresses (the
// accesses it has not yet pruned) and never grows past its initial
// size.
func TestWindowMemLastBounded(t *testing.T) {
	w := bench.Compress()
	code, err := interp.Predecode(w.Build(), nil)
	if err != nil {
		t.Fatal(err)
	}
	tr, _, err := trace.Capture(code, interp.Options{}, w.Init, nil)
	if err != nil {
		t.Fatal(err)
	}
	deep := machine.R10000()
	deep.ActiveList = 64
	cfgs := []pipeline.Config{
		{Model: machine.R10000(), Predictor: predict.NewTwoBit(512)},
		{Model: deep, Predictor: predict.NewPerfect()},
	}
	peak, capacity, chunk, horizon, err := pipeline.WindowMemPeak(tr.NewReader(), cfgs)
	if err != nil {
		t.Fatal(err)
	}
	if horizon != 64 {
		t.Fatalf("horizon = %d, want the largest lane ActiveList, 64", horizon)
	}

	addrs := map[int64]bool{}
	rd := tr.NewReader()
	var ev interp.Event
	for {
		ok, err := rd.NextInto(&ev)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		if ev.IsMem && !ev.Annulled {
			addrs[ev.MemAddr] = true
		}
	}
	bound := chunk + horizon
	if int64(len(addrs)) < 16*bound {
		t.Fatalf("compress touches %d distinct addresses, too few to test a bound of %d", len(addrs), bound)
	}
	if int64(peak) > bound {
		t.Errorf("disambiguation table peaked at %d addresses, want ≤ chunk + horizon = %d (trace: %d distinct)", peak, bound, len(addrs))
	}
	if int64(capacity) > 8*bound {
		t.Errorf("disambiguation table grew to %d slots, want its initial ≤ %d", capacity, 8*bound)
	}
}
