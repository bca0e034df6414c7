package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestMain lets the test binary stand in for the benchmark binary when
// the orchestrator re-executes itself as a workload child process.
func TestMain(m *testing.M) {
	if os.Getenv(childEnv) == "1" {
		os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

// spec reads the repository's BENCHMARK.json: each metric's unit by
// name.
func spec(t *testing.T) (e2e, layers map[string]string) {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var s struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &s); err != nil {
		t.Fatal(err)
	}
	e2e, layers = map[string]string{}, map[string]string{}
	for _, m := range s.EndToEnd {
		e2e[m.Name] = m.Unit
	}
	for _, m := range s.PerLayer {
		layers[m.Name] = m.Unit
	}
	return e2e, layers
}

// quickRun runs the benchmark in quick mode and decodes its report.
func quickRun(t *testing.T, args ...string) *Report {
	t.Helper()
	var out, errOut bytes.Buffer
	args = append([]string{"-root", "..", "-quick", "-trace-dir", t.TempDir()}, args...)
	if code := run(args, &out, &errOut); code != 0 {
		t.Fatalf("run %v: exit %d\n%s\n%s", args, code, out.String(), errOut.String())
	}
	var rep Report
	if err := json.NewDecoder(&out).Decode(&rep); err != nil {
		t.Fatalf("decoding report: %v\n%s", err, out.String())
	}
	return &rep
}

// checkMetrics asserts a workload emitted every named metric with its
// BENCHMARK.json unit.
func checkMetrics(t *testing.T, workload string, wr *WorkloadReport, want map[string]string) {
	t.Helper()
	for name, unit := range want {
		m, ok := wr.Metrics[name]
		if !ok {
			t.Errorf("%s: metric %s not emitted", workload, name)
		} else if m.Unit != unit {
			t.Errorf("%s: metric %s has unit %q, BENCHMARK.json says %q", workload, name, m.Unit, unit)
		}
	}
}

// TestHeldOutSeed runs every workload once on the held-out seed 2: every
// output check must pass and every end-to-end metric must be emitted,
// positive, with its unit. A traced serve-mixed run covers the
// per-layer names. The runs are separate processes and mostly wait on
// the serve schedule, so they run in parallel.
func TestHeldOutSeed(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	e2e, layers := spec(t)
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			t.Parallel()
			wr := quickRun(t, "-seed", "2", "-workload", w.name).Workloads[w.name]
			if wr == nil {
				t.Fatal("missing from the report")
			}
			if !wr.Correct || wr.Failed != 0 {
				t.Errorf("%d of %d checks failed: %s", wr.Failed, wr.Attempted, strings.Join(wr.Errors, "; "))
			}
			checkMetrics(t, w.name, wr, e2e)
			for name := range e2e {
				if v := wr.Metrics[name].Value; !(v > 0) {
					t.Errorf("%s = %v, want > 0", name, v)
				}
			}
		})
	}
	t.Run("serve-mixed-traced", func(t *testing.T) {
		t.Parallel()
		traced := quickRun(t, "-seed", "2", "-trace", "1", "-workload", "serve-mixed").Workloads["serve-mixed"]
		if traced == nil || !traced.Correct {
			t.Fatalf("traced serve-mixed: %+v", traced)
		}
		checkMetrics(t, "serve-mixed (traced)", traced, layers)
		sum := 0.0
		for _, st := range stageNames {
			sum += traced.Metrics["pipeline.stage."+st+"_pct"].Value
		}
		if math.Abs(sum-100) > 1e-6 {
			t.Errorf("pipeline stage shares sum to %v%%, want 100%%", sum)
		}
	})
}

// TestNamesMatchSpec pins the code's metric tables to BENCHMARK.json.
func TestNamesMatchSpec(t *testing.T) {
	e2e, layers := spec(t)
	for _, c := range []struct {
		kind string
		code []metricDef
		spec map[string]string
	}{{"end-to-end", endToEnd, e2e}, {"per-layer", perLayer, layers}} {
		if len(c.code) != len(c.spec) {
			t.Errorf("BENCHMARK.json has %d %s metrics, the code reports %d", len(c.spec), c.kind, len(c.code))
		}
		for _, d := range c.code {
			if u, ok := c.spec[d.name]; !ok || u != d.unit {
				t.Errorf("%s metric %s (%s) is not in BENCHMARK.json with that unit (got %q)", c.kind, d.name, d.unit, u)
			}
		}
	}
}

// TestDiff: matching sides compare as the same; a new run that failed a
// check fails the comparison whatever its timings; reports made with
// other run settings are refused.
func TestDiff(t *testing.T) {
	e2e, _ := spec(t)
	report := func(v float64, seconds int, correct bool) *Report {
		rep := &Report{Seconds: seconds, Workloads: map[string]*WorkloadReport{}}
		for _, w := range workloads {
			wr := &WorkloadReport{Correct: correct, Attempted: 10, Metrics: map[string]Metric{}}
			if !correct {
				wr.Failed = 1
			}
			for name, unit := range e2e {
				wr.Metrics[name] = single(v, unit)
			}
			rep.Workloads[w.name] = wr
		}
		return rep
	}
	dir := func(reps ...*Report) string {
		d := t.TempDir()
		for i, r := range reps {
			data, err := json.Marshal(r)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(d, fmt.Sprintf("run-%d.json", i)), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		return d
	}
	base := dir(report(100, 30, true), report(101, 30, true), report(102, 30, true))
	for _, c := range []struct {
		name    string
		nw      string
		code    int
		verdict string
	}{
		{"same", dir(report(101, 30, true), report(100, 30, true), report(102, 30, true)), 0, "same"},
		{"one failed run", dir(report(100, 30, true), report(90, 30, false), report(102, 30, true)), 1, "failed"},
		{"other run length", dir(report(100, 20, true), report(101, 20, true), report(102, 20, true)), 2, ""},
	} {
		var out, errOut bytes.Buffer
		if code := runDiff("..", base, c.nw, &out, &errOut); code != c.code {
			t.Errorf("%s: exit %d, want %d\n%s%s", c.name, code, c.code, out.String(), errOut.String())
			continue
		}
		rows := strings.Split(strings.TrimSpace(out.String()), "\n")
		if c.verdict == "" {
			continue
		}
		if want := 1 + len(workloads)*len(e2e); len(rows) != want {
			t.Errorf("%s: %d lines, want %d\n%s", c.name, len(rows), want, out.String())
		}
		for _, row := range rows[1:] {
			if f := strings.Fields(row); f[len(f)-1] != c.verdict {
				t.Errorf("%s: row %q, want verdict %s", c.name, row, c.verdict)
			}
		}
	}
}

// TestServePlanDeterministic: the serve schedule is byte-identical for
// one seed and differs across seeds.
func TestServePlanDeterministic(t *testing.T) {
	encode := func(seed int64) []byte {
		p, err := makePlan(seed, 25*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(p)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	a, b, c := encode(1), encode(1), encode(2)
	if !bytes.Equal(a, b) {
		t.Error("seed 1 produced two different schedules")
	}
	if bytes.Equal(a, c) {
		t.Error("seeds 1 and 2 produced the same schedule")
	}
}
