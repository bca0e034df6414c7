package bench

import (
	"context"
	"reflect"
	"sync"
	"testing"

	"specguard/internal/core"
	"specguard/internal/interp"
)

// These tests hammer the Runner's profile and program caches and its
// machine pool from many goroutines under -race: however many callers
// race on one (workload, fingerprint) key, the program is profiled and
// predecoded once, and no machine ever serves two drains at once. The
// serve layer's request coalescing is built on top of these guarantees.

// TestProfileCacheSingleCaptureUnderContention: 32 goroutines racing
// on ProfileOf of one workload produce one profiling run on one
// machine, one *Profile, and leave that machine idle.
func TestProfileCacheSingleCaptureUnderContention(t *testing.T) {
	r := NewRunner()
	w := Grep()
	const n = 32
	profs := make([]any, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			p, err := r.ProfileOf(w)
			if err != nil {
				t.Error(err)
				return
			}
			profs[i] = p
		}(i)
	}
	wg.Wait()
	if got := r.ArchRuns(); got != 1 {
		t.Errorf("ArchRuns = %d, want 1 (one profiling run per workload)", got)
	}
	for i := 1; i < n; i++ {
		if profs[i] != profs[0] {
			t.Fatalf("goroutine %d received a different *Profile instance", i)
		}
	}
	if e, _ := baseEntry(t, r, w); idleMachines(t, r, e) != 1 {
		t.Error("the profiling run's machine is not idle")
	}
}

// TestProgramCacheSinglePredecodeUnderContention: 32 goroutines racing
// on the program cache — half on the base program, which the profiling
// run already predecoded, half on the optimized rewrite, which none has
// — each get their program's one *interp.Code, and building it runs no
// program.
func TestProgramCacheSinglePredecodeUnderContention(t *testing.T) {
	r := NewRunner()
	w := Grep()
	prof, err := r.ProfileOf(w)
	if err != nil {
		t.Fatal(err)
	}
	orig := w.Build()
	opt := w.Build()
	if _, err := core.Optimize(opt, prof, r.Model, w.Opt); err != nil {
		t.Fatal(err)
	}
	if orig.Fingerprint() == opt.Fingerprint() {
		t.Fatal("optimizer produced an identical fingerprint; contention test needs two keys")
	}

	const n = 32
	codes := make([]*interp.Code, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			p := orig
			if i%2 == 1 {
				p = opt
			}
			code, err := r.codeOf(entry(r, r.programs, programKey{w.Name, p.Fingerprint()}), w, p)
			if err != nil {
				t.Error(err)
				return
			}
			codes[i] = code
		}(i)
	}
	wg.Wait()
	for i := 2; i < n; i++ {
		if codes[i] != codes[i%2] {
			t.Fatalf("goroutine %d received a different *interp.Code than goroutine %d", i, i%2)
		}
	}
	if codes[0] == codes[1] {
		t.Error("the base program and its rewrite share one *interp.Code")
	}
	if got := r.ArchRuns(); got != 1 {
		t.Errorf("ArchRuns = %d, want 1 (predecoding builds no machine)", got)
	}
}

// TestConcurrentCallsDrainOwnMachines drives the request path the way
// sgserved does: concurrent one-cell calls of grep's two programs,
// mixing schemes, predictor sizes and per-spec models, so no call is
// served from the Stats cache. Each drain runs its own machine — one
// taken idle or built, never one another drain holds — so every result
// equals its cell simulated alone on a fresh machine (rawStats), every
// machine built ends idle exactly once, and no more are built than
// drains could run at once.
func TestConcurrentCallsDrainOwnMachines(t *testing.T) {
	r := NewRunner()
	w := Grep()
	specs := []Spec{
		{Workload: w, Scheme: SchemeTwoBit, Model: r.Model.Clone()},
		{Workload: w, Scheme: SchemeTwoBit, Entries: 4},
		{Workload: w, Scheme: SchemePerfect, Model: r.Model.Clone()},
		{Workload: w, Scheme: SchemeProposed, Model: r.Model.Clone()},
		{Workload: w, Scheme: SchemeProposed, Entries: 64},
	}
	rounds := 4
	if raceDetectorOn {
		rounds = 3
	}
	results := make([][]Result, rounds)
	var wg sync.WaitGroup
	for round := range results {
		results[round] = make([]Result, len(specs))
		for i, spec := range specs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				res, err := r.RunSpec(context.Background(), spec)
				if err != nil {
					t.Error(err)
					return
				}
				results[round][i] = res
			}()
		}
	}
	wg.Wait()
	if t.Failed() {
		return
	}

	calls := int64(rounds * len(specs))
	if got := r.TraceDrains(); got != calls {
		t.Errorf("%d drains for %d calls, want one each", got, calls)
	}
	idle := 0
	seen := map[*interp.Machine]bool{}
	for _, e := range r.programs {
		idle += idleMachines(t, r, e)
		for _, m := range e.idle {
			if seen[m] {
				t.Errorf("machine %p is idle twice", m)
			}
			seen[m] = true
		}
	}
	if got := r.ArchRuns(); int64(idle) != got || got < 2 || got > calls+1 {
		t.Errorf("%d machines built, %d idle; want every one idle, between 2 (one per program) and %d", got, idle, calls+1)
	}

	fresh := NewRunner()
	for i, spec := range specs {
		want := rawStats(t, fresh, spec)
		for round := range results {
			if !reflect.DeepEqual(results[round][i].Stats, want) {
				t.Errorf("round %d, spec %d (%s, entries %d): Stats differ from a fresh machine's", round, i, spec.Scheme, spec.Entries)
			}
		}
	}
}
