package bench

import (
	"context"
	"errors"
	"reflect"
	"sync/atomic"
	"testing"

	"specguard/internal/interp"
)

// TestImageBuiltOncePerWorkload: a fresh Runner evaluating what sgbench
// prints — RunAll, then the seven ablation rows — builds each
// workload's input image once, however many programs run over it: 4
// builds for 18 machines. Every machine needs its workload's image, so
// four builds over four workloads is one each.
func TestImageBuiltOncePerWorkload(t *testing.T) {
	orig := newImage
	defer func() { newImage = orig }()
	var builds atomic.Int64 // RunSpecs profiles workloads in parallel
	newImage = func(opts interp.Options, init func(interp.Memory) error) (*interp.Image, error) {
		builds.Add(1)
		return orig(opts, init)
	}
	rows, wantRuns := ablationRows, int64(18)
	if raceDetectorOn {
		rows, wantRuns = ablationRows[:1], 8 // as in TestStatsCacheDedup
	}
	r := NewRunner()
	if _, err := r.RunAll(); err != nil {
		t.Fatal(err)
	}
	for _, opts := range rows {
		if _, err := r.RunProposedOptsAll(opts); err != nil {
			t.Fatal(err)
		}
	}
	if got := builds.Load(); got != 4 || r.ArchRuns() != wantRuns {
		t.Errorf("%d image builds for %d machines, want 4 for %d", got, r.ArchRuns(), wantRuns)
	}
}

// TestFailingInitFailsEveryRun: a workload whose Init fails fails every
// architectural run the Runner would make of it — the profiling
// run behind each scheme's cell, and RunLeak's taint machine —
// with Init's error, from one Init call cached like a failing profile,
// and no machine is built.
func TestFailingInitFailsEveryRun(t *testing.T) {
	errInit := errors.New("input generator failed")
	calls := 0
	w := Workload{Name: "grep-bad-input", Build: Grep().Build, Init: func(interp.Memory) error {
		calls++
		return errInit
	}}
	r := NewRunner()
	for _, s := range []Scheme{SchemeTwoBit, SchemeProposed, SchemePerfect} {
		if _, err := r.RunSpec(context.Background(), Spec{Workload: w, Scheme: s}); !errors.Is(err, errInit) {
			t.Errorf("%s cell: %v, want Init's error", s, err)
		}
		if _, err := r.RunLeak(context.Background(), w, s); !errors.Is(err, errInit) {
			t.Errorf("%s leak cell: %v, want Init's error", s, err)
		}
	}
	if calls != 1 || r.ArchRuns() != 0 {
		t.Errorf("Init ran %d times and %d machines were built, want 1 and 0", calls, r.ArchRuns())
	}
}

// TestInitRunsOncePerRunner: every architectural run the Runner makes
// of a workload — the profiling run, the Proposed program's machine
// and RunLeak's taint machine — starts from its one image, so Init runs
// once, and the cells' Stats are the registered workload's.
func TestInitRunsOncePerRunner(t *testing.T) {
	g := Grep()
	calls := 0
	w := Workload{Name: "grep-counted", Build: g.Build, Init: func(m interp.Memory) error {
		calls++
		return g.Init(m)
	}}
	r := NewRunner()
	want := allResults(t)
	for _, s := range []Scheme{SchemeTwoBit, SchemeProposed, SchemePerfect} {
		got, err := r.RunSpec(context.Background(), Spec{Workload: w, Scheme: s})
		if err != nil {
			t.Fatal(err)
		}
		for _, ref := range want {
			if ref.Workload == g.Name && ref.Scheme == s && !reflect.DeepEqual(got.Stats, ref.Stats) {
				t.Errorf("%s: Stats differ from the registered grep's", s)
			}
		}
	}
	if _, err := r.RunLeak(context.Background(), w, SchemeTwoBit); err != nil {
		t.Fatal(err)
	}
	if calls != 1 || r.ArchRuns() != 2 {
		t.Errorf("Init ran %d times over %d machines and a leak run, want once over 2", calls, r.ArchRuns())
	}
}
