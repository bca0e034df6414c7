package bench

import (
	"reflect"
	"testing"

	"specguard/internal/core"
)

// TestParallelRunAllMatchesSerial pins the harness's core guarantee:
// RunAll on four lane-scheduler workers must produce Stats
// byte-identical to RunAll on one. Nothing mutable may be shared
// between simulations — each builds its own program, predictor,
// machine and lanes (with private caches) — so a mismatch here means a
// simulation leaked state across goroutines.
func TestParallelRunAllMatchesSerial(t *testing.T) {
	serialRunner := NewRunner()
	serialRunner.Parallelism = 1
	serial, err := serialRunner.RunAll()
	if err != nil {
		t.Fatal(err)
	}

	parRunner := NewRunner()
	parRunner.Parallelism = 4 // force real concurrency even on 1-CPU boxes
	parallel, err := parRunner.RunAll()
	if err != nil {
		t.Fatal(err)
	}

	if len(serial) != len(parallel) {
		t.Fatalf("result counts differ: serial=%d parallel=%d", len(serial), len(parallel))
	}
	for i := range serial {
		s, p := serial[i], parallel[i]
		if s.Workload != p.Workload || s.Scheme != p.Scheme {
			t.Fatalf("result %d ordering differs: serial=%s/%s parallel=%s/%s",
				i, s.Workload, s.Scheme, p.Workload, p.Scheme)
		}
		if !reflect.DeepEqual(s.Stats, p.Stats) {
			t.Errorf("%s/%s: parallel Stats diverged from serial\nserial:   %+v\nparallel: %+v",
				s.Workload, s.Scheme, s.Stats, p.Stats)
		}
	}
}

// TestParallelAblationMatchesSerial does the same for the ablation
// fan-out helper.
func TestParallelAblationMatchesSerial(t *testing.T) {
	serialRunner := NewRunner()
	serialRunner.Parallelism = 1
	parRunner := NewRunner()
	parRunner.Parallelism = 4

	opts := core.Options{DisableSplitting: true}
	serial, err := serialRunner.RunProposedOptsAll(opts)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := parRunner.RunProposedOptsAll(opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(serial) != len(parallel) {
		t.Fatalf("result counts differ")
	}
	for i := range serial {
		if !reflect.DeepEqual(serial[i].Stats, parallel[i].Stats) {
			t.Errorf("%s: ablation Stats diverged under parallelism", serial[i].Workload)
		}
	}
}

// TestProfileCacheSharedAcrossSchemes ensures the parallel path still
// shares one feedback profile per workload.
func TestProfileCacheSharedAcrossSchemes(t *testing.T) {
	r := NewRunner()
	r.Parallelism = 4
	results, err := r.RunAll()
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]*Result{}
	for i := range results {
		res := &results[i]
		if prev, ok := byName[res.Workload]; ok {
			if prev.Profile != res.Profile {
				t.Errorf("%s: schemes hold different *Profile instances", res.Workload)
			}
		} else {
			byName[res.Workload] = res
		}
	}
}
