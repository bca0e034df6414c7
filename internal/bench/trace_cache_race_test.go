package bench

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"testing"

	"specguard/internal/core"
)

// These tests hammer the Runner's two caches from many goroutines and
// pin the single-capture-per-key invariant under -race: no matter how
// many concurrent callers race on one (workload, fingerprint) key, the
// architectural execution happens exactly once. The serve layer's
// request coalescing is built on top of this guarantee.

// TestProfileCacheSingleCaptureUnderContention: 32 goroutines racing
// on ProfileOf of one workload produce one capture and one *Profile.
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
		t.Errorf("ArchRuns = %d, want 1 (one profiling capture per workload)", got)
	}
	for i := 1; i < n; i++ {
		if profs[i] != profs[0] {
			t.Fatalf("goroutine %d received a different *Profile instance", i)
		}
	}
}

// TestTraceCacheSingleCaptureUnderContention: after the profiling run
// has seeded the original program's trace, 32 goroutines racing on
// traceFor of the *optimized* program (one distinct fingerprint)
// produce exactly one additional capture; rereads of the original
// program's key add none.
func TestTraceCacheSingleCaptureUnderContention(t *testing.T) {
	r := NewRunner()
	w := Grep()
	prof, err := r.ProfileOf(w)
	if err != nil {
		t.Fatal(err)
	}
	if got := r.ArchRuns(); got != 1 {
		t.Fatalf("ArchRuns after profiling = %d, want 1", got)
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
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// Even goroutines hit the seeded original-program key,
			// odd ones race on the optimized program's key.
			p := orig
			if i%2 == 1 {
				p = opt
			}
			tr, err := r.traceFor(w, p, p.Fingerprint())
			if err != nil {
				t.Error(err)
				return
			}
			if tr == nil {
				t.Error("traceFor returned nil trace")
			}
		}(i)
	}
	wg.Wait()
	if got := r.ArchRuns(); got != 2 {
		t.Errorf("ArchRuns = %d, want 2 (profiling capture + one optimized capture)", got)
	}
}

// TestRunSpecSingleCapturePerKeyUnderContention drives the full
// request path the way sgserved does — concurrent RunSpec calls
// mixing schemes and predictor sizes — and asserts the capture count
// stays at the per-key floor: one profiling run plus one optimized
// rewrite per workload, regardless of timing-config fan-out.
func TestRunSpecSingleCapturePerKeyUnderContention(t *testing.T) {
	r := NewRunner()
	w := Grep()
	specs := []Spec{
		{Workload: w, Scheme: SchemeTwoBit},
		{Workload: w, Scheme: SchemeTwoBit, Entries: 4},
		{Workload: w, Scheme: SchemeTwoBit, Entries: 64},
		{Workload: w, Scheme: SchemePerfect},
		{Workload: w, Scheme: SchemeProposed},
		{Workload: w, Scheme: SchemeProposed, Entries: 64},
	}
	const rounds = 4
	results := make([][]Result, rounds)
	var wg sync.WaitGroup
	for round := 0; round < rounds; round++ {
		results[round] = make([]Result, len(specs))
		for i, spec := range specs {
			wg.Add(1)
			go func(round, i int, spec Spec) {
				defer wg.Done()
				res, err := r.RunSpec(context.Background(), spec)
				if err != nil {
					t.Error(err)
					return
				}
				results[round][i] = res
			}(round, i, spec)
		}
	}
	wg.Wait()
	if got := r.ArchRuns(); got != 2 {
		t.Errorf("ArchRuns = %d, want 2 (original + optimized captures, shared by all %d simulations)",
			got, rounds*len(specs))
	}
	// Identical specs must be bit-identical across rounds (no state
	// leaks between concurrent simulations).
	for round := 1; round < rounds; round++ {
		for i := range specs {
			if !reflect.DeepEqual(results[round][i].Stats, results[0][i].Stats) {
				t.Errorf("round %d spec %d Stats diverged", round, i)
			}
		}
	}
}

// TestRunContextCancelled: an already-cancelled context aborts before
// any architectural or timing work, and a subsequent un-cancelled call
// still succeeds (cancellation must not poison the caches).
func TestRunContextCancelled(t *testing.T) {
	r := NewRunner()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := r.RunContext(ctx, Grep(), SchemeTwoBit); !errors.Is(err, context.Canceled) {
		t.Fatalf("RunContext with cancelled ctx = %v, want context.Canceled", err)
	}
	if got := r.ArchRuns(); got != 0 {
		t.Errorf("cancelled call performed %d architectural runs", got)
	}
	if _, err := r.RunAllContext(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("RunAllContext with cancelled ctx = %v, want context.Canceled", err)
	}
	if _, err := r.RunProposedOptsAllContext(ctx, core.Options{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("RunProposedOptsAllContext with cancelled ctx = %v, want context.Canceled", err)
	}

	res, err := r.Run(Grep(), SchemeTwoBit)
	if err != nil {
		t.Fatalf("Run after cancelled RunContext: %v", err)
	}
	if res.Stats.Cycles == 0 {
		t.Error("post-cancellation run produced empty Stats")
	}
}
