package bench

import (
	"strings"
	"sync"
	"testing"

	"specguard/internal/core"
	"specguard/internal/interp"
	"specguard/internal/machine"
	"specguard/internal/profile"
)

// sharedResults runs the full 4×3 experiment matrix once per test
// binary (≈6 s) and shares it across assertions.
var (
	resultsOnce sync.Once
	results     []Result
	resultsErr  error
)

func allResults(t *testing.T) []Result {
	t.Helper()
	resultsOnce.Do(func() {
		results, resultsErr = NewRunner().RunAll()
	})
	if resultsErr != nil {
		t.Fatal(resultsErr)
	}
	return results
}

func TestWorkloadRegistry(t *testing.T) {
	ws := All()
	if len(ws) != 4 {
		t.Fatalf("want 4 workloads, got %d", len(ws))
	}
	wantOrder := []string{"compress", "espresso", "xlisp", "grep"}
	for i, w := range ws {
		if w.Name != wantOrder[i] {
			t.Errorf("workload %d = %s, want %s", i, w.Name, wantOrder[i])
		}
		if w.Build == nil || w.Init == nil {
			t.Errorf("%s missing Build/Init", w.Name)
		}
	}
	if _, err := ByName("xlisp"); err != nil {
		t.Error(err)
	}
	if _, err := ByName("mcf"); err == nil {
		t.Error("unknown workload must error")
	}
}

// TestWorkloadFingerprint: the once-computed base fingerprint every
// trace-cache and store key uses equals the fingerprint of a fresh
// Build, for the built-in kernels and for a workload without a
// prototype, so existing stores keep hitting.
func TestWorkloadFingerprint(t *testing.T) {
	ws := append(All(), LeakWorkloads()...)
	custom := Grep()
	ws = append(ws, Workload{Name: "custom", Build: custom.Build, Init: custom.Init})
	for _, w := range ws {
		if got, want := w.Fingerprint(), w.Build().Fingerprint(); got != want {
			t.Errorf("%s: Fingerprint() = %016x, Build().Fingerprint() = %016x", w.Name, got, want)
		}
	}
}

func TestLCGDeterminism(t *testing.T) {
	a, b := lcg{s: 7}, lcg{s: 7}
	for i := 0; i < 100; i++ {
		if a.next() != b.next() {
			t.Fatal("lcg must be deterministic")
		}
	}
	c := lcg{s: 8}
	same := true
	for i := 0; i < 10; i++ {
		if (&lcg{s: 7}).next() == c.next() && i > 0 {
			continue
		}
		same = false
	}
	_ = same // different seeds produce different streams (spot check above)
}

// TestWorkloadsRunToCompletion checks every kernel terminates and
// produces stable architectural results across two runs.
func TestWorkloadsRunToCompletion(t *testing.T) {
	for _, w := range All() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			run := func() interp.Result {
				m, err := interp.New(w.Build(), nil, interp.Options{})
				if err != nil {
					t.Fatal(err)
				}
				if err := w.Init(m); err != nil {
					t.Fatal(err)
				}
				res, err := m.Run(nil)
				if err != nil {
					t.Fatal(err)
				}
				return res
			}
			a, b := run(), run()
			if a.DynInstrs != b.DynInstrs || a.FinalStateR != b.FinalStateR {
				t.Error("workload not deterministic")
			}
			if a.DynInstrs < 100_000 {
				t.Errorf("workload too small: %d dynamic instructions", a.DynInstrs)
			}
			if a.Branches == 0 {
				t.Error("workload has no branches")
			}
		})
	}
}

// TestWorkloadSemanticsPreservedByOptimizer verifies the optimizer
// does not change any kernel's observable results (final registers).
func TestWorkloadSemanticsPreservedByOptimizer(t *testing.T) {
	for _, w := range All() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			base := w.Build()
			prof, _, err := profile.Collect(w.Build(), interp.Options{}, w.Init)
			if err != nil {
				t.Fatal(err)
			}
			opt := w.Build()
			if _, err := core.Optimize(opt, prof, machine.R10000(), w.Opt); err != nil {
				t.Fatal(err)
			}
			mb, err := interp.New(base, nil, interp.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if err := w.Init(mb); err != nil {
				t.Fatal(err)
			}
			rb, err := mb.Run(nil)
			if err != nil {
				t.Fatal(err)
			}
			mo, err := interp.New(opt, nil, interp.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if err := w.Init(mo); err != nil {
				t.Fatal(err)
			}
			ro, err := mo.Run(nil)
			if err != nil {
				t.Fatalf("optimized %s failed: %v", w.Name, err)
			}
			// Compare the registers the original program mentions
			// (kernels keep results in low registers and memory).
			for i := 1; i < 20; i++ {
				if rb.FinalStateR[i] != ro.FinalStateR[i] {
					t.Errorf("r%d differs: %d vs %d", i, rb.FinalStateR[i], ro.FinalStateR[i])
				}
			}
		})
	}
}

func TestTable1Characteristics(t *testing.T) {
	rows := Table1(allResults(t))
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.BranchPct < 10 || r.BranchPct > 40 {
			t.Errorf("%s branch density %.1f%% outside the plausible band", r.Name, r.BranchPct)
		}
		if r.PredictPct < 85 || r.PredictPct > 99 {
			t.Errorf("%s baseline accuracy %.1f%% outside the paper's band", r.Name, r.PredictPct)
		}
		if r.DynInstrs < 100_000 {
			t.Errorf("%s too small: %d instrs", r.Name, r.DynInstrs)
		}
	}
	out := FormatTable1(rows)
	for _, want := range []string{"compress", "espresso", "xlisp", "grep", "Branch(%)"} {
		if !strings.Contains(out, want) {
			t.Errorf("table missing %q", want)
		}
	}
}

func TestTable2Echo(t *testing.T) {
	out := FormatTable2(machine.R10000())
	for _, want := range []string{"alu", "ld/st", "fp div", "cache miss penalty"} {
		if !strings.Contains(out, want) {
			t.Errorf("table 2 missing %q:\n%s", want, out)
		}
	}
}

// TestTable3Shape asserts the paper's reservation-station signature:
// under perfect prediction fetch runs far ahead and the branch stack
// saturates far more often than under the 2-bit baseline.
func TestTable3Shape(t *testing.T) {
	rows := Table3(allResults(t))
	improved := 0
	for _, r := range rows {
		if r.BR[SchemePerfect] > r.BR[SchemeTwoBit] {
			improved++
		}
	}
	if improved < 3 {
		t.Errorf("BR-stack occupancy must rise with prediction quality on most workloads (got %d/4):\n%s",
			improved, FormatTable3(rows))
	}
}

// TestTable4AndHeadlineShape asserts the paper's headline shape:
// perfect ≥ baseline everywhere, the proposed approach improves the
// suite's mean IPC by ≥1.15×, and no workload regresses materially.
func TestTable4AndHeadlineShape(t *testing.T) {
	hs := Headlines(allResults(t))
	if len(hs) != 4 {
		t.Fatalf("headlines = %d", len(hs))
	}
	product := 1.0
	for _, h := range hs {
		if h.PerfIPC < h.BaseIPC {
			t.Errorf("%s: perfect IPC %.3f below baseline %.3f", h.Name, h.PerfIPC, h.BaseIPC)
		}
		if h.CycleSpeedup() < 0.99 {
			t.Errorf("%s: proposed regresses in cycles: %.3fx", h.Name, h.CycleSpeedup())
		}
		product *= h.CycleSpeedup()
	}
	geomean := geo4(product)
	if geomean < 1.15 {
		t.Errorf("suite geomean cycle speedup %.2fx, want ≥1.15x (paper: 1.3-1.6x)", geomean)
	}
	// xlisp must be the lowest-IPC benchmark under every scheme, as in
	// the paper (indirect dispatch dominates).
	for s := SchemeTwoBit; s <= SchemePerfect; s++ {
		low, lowName := 1e9, ""
		for _, h := range hs {
			v := []float64{h.BaseIPC, h.PropIPC, h.PerfIPC}[s]
			if v < low {
				low, lowName = v, h.Name
			}
		}
		if s != SchemePerfect && lowName != "xlisp" {
			t.Errorf("scheme %v: lowest IPC is %s, want xlisp", s, lowName)
		}
	}
}

func geo4(product float64) float64 {
	// fourth root without math import ceremony
	x := product
	g := 1.0
	for i := 0; i < 60; i++ {
		g = g - (g*g*g*g-x)/(4*g*g*g)
	}
	return g
}

// TestProposedDecisionsRecorded checks every workload's optimizer run
// actually made decisions (the proposed scheme is not a no-op).
func TestProposedDecisionsRecorded(t *testing.T) {
	for _, res := range allResults(t) {
		if res.Scheme != SchemeProposed {
			continue
		}
		if res.Report == nil || len(res.Report.Decisions) == 0 {
			t.Errorf("%s: proposed scheme made no decisions", res.Workload)
		}
	}
}

// TestFigureOutput checks the analytic worked example renders the
// paper's exact numbers.
func TestFigureOutput(t *testing.T) {
	out := FormatFigure2()
	for _, want := range []string{"3100", "2900", "3600", "2756"} {
		if strings.Count(out, want) < 2 { // computed + paper column
			t.Errorf("figure output missing computed %s:\n%s", want, out)
		}
	}
}

// TestRunnerProfileCache ensures profiles are computed once.
func TestRunnerProfileCache(t *testing.T) {
	r := NewRunner()
	w := Grep()
	p1, err := r.ProfileOf(w)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := r.ProfileOf(w)
	if err != nil {
		t.Fatal(err)
	}
	if p1 != p2 {
		t.Error("profile not cached")
	}
}

func TestSchemeString(t *testing.T) {
	if SchemeTwoBit.String() != "2-bitBP" || SchemeProposed.String() != "Proposed" || SchemePerfect.String() != "PerfectBP" {
		t.Error("scheme names wrong")
	}
}
