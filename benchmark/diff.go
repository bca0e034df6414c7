package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"text/tabwriter"
)

// benchSpec is the part of BENCHMARK.json the benchmark reads: the run
// length and the end-to-end metrics' directions and bounds.
type benchSpec struct {
	RunSeconds int `json:"run_seconds"`
	EndToEnd   []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

func readSpec(root string) (*benchSpec, error) {
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var spec benchSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	if spec.RunSeconds <= 0 {
		return nil, fmt.Errorf("BENCHMARK.json: run_seconds %d is not positive", spec.RunSeconds)
	}
	return &spec, nil
}

// loadReports reads every *.json report in dir, in name order. A file
// may hold a full report or a single-workload run's output, whose first
// line is the report.
func loadReports(dir string) ([]*Report, error) {
	files, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, err
	}
	sort.Strings(files)
	var out []*Report
	for _, f := range files {
		fh, err := os.Open(f)
		if err != nil {
			return nil, err
		}
		var rep Report
		err = json.NewDecoder(fh).Decode(&rep)
		fh.Close()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", f, err)
		}
		out = append(out, &rep)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no *.json reports in %s", dir)
	}
	return out, nil
}

// side is one commit's runs of one workload: each run's value of a
// metric (ok false where the run lacks the workload or failed a check),
// the failed operations summed over its runs and the runs that failed a
// check.
type side struct {
	vals      []float64
	ok        []bool
	failed    int
	incorrect int
}

func collect(reps []*Report, workload, metric string) side {
	var s side
	for _, r := range reps {
		wr := r.Workloads[workload]
		var m Metric
		has := false
		if wr != nil {
			s.failed += wr.Failed
			if wr.Correct {
				m, has = wr.Metrics[metric]
			} else {
				s.incorrect++
			}
		}
		s.vals = append(s.vals, m.Value)
		s.ok = append(s.ok, has)
	}
	return s
}

func (s side) present() []float64 {
	var out []float64
	for i, v := range s.vals {
		if s.ok[i] {
			out = append(out, v)
		}
	}
	return out
}

// wins counts the run pairs, matched by file order, that the new side
// wins; ties count for neither.
func wins(base, nw side, lower bool) (won, pairs int) {
	for i := 0; i < len(base.vals) && i < len(nw.vals); i++ {
		if !base.ok[i] || !nw.ok[i] {
			continue
		}
		pairs++
		if (lower && nw.vals[i] < base.vals[i]) || (!lower && nw.vals[i] > base.vals[i]) {
			won++
		}
	}
	return won, pairs
}

// verdict judges one (workload, metric) pair of run sets; bound is the
// regression bound as a share of the base median.
//
//   - failed: a new run failed a check, or more operations failed than
//     at the base: simulated results differ, whatever the timings say;
//   - missing: a side has no run that measured the metric;
//   - unresolved: the base runs' own quartile spread exceeds the bound,
//     unless every new run beats every base run (then better);
//   - better: the new side wins at least nine tenths of the pairs and
//     the medians differ by more than the base's quartile spread;
//   - worse: the new median is worse than the base's by more than bound;
//   - same otherwise.
func verdict(base, nw side, lower bool, bound float64) string {
	if nw.incorrect > 0 || nw.failed > base.failed {
		return "failed"
	}
	bs, ns := base.present(), nw.present()
	if len(bs) == 0 || len(ns) == 0 {
		return "missing"
	}
	b, n := summarize(bs, ""), summarize(ns, "")
	if b.Value == 0 {
		return "unresolved"
	}
	better := func(x, y float64) bool { return (lower && x < y) || (!lower && x > y) }
	allBetter := true
	for _, x := range ns {
		for _, y := range bs {
			allBetter = allBetter && better(x, y)
		}
	}
	worse := (n.Value - b.Value) / b.Value
	if !lower {
		worse = -worse
	}
	won, pairs := wins(base, nw, lower)
	gain := 10*won >= 9*pairs && pairs > 0 && -worse*b.Value > b.P75-b.P25
	switch spread := (b.P75 - b.P25) / b.Value; {
	case spread > bound && allBetter:
		return "better"
	case spread > bound:
		return "unresolved"
	case gain:
		return "better"
	case worse > bound:
		return "worse"
	}
	return "same"
}

// runSettings are the settings two compared runs must share.
type runSettings struct {
	Seconds      int
	Trace, Quick bool
}

func settingsOf(r *Report) runSettings { return runSettings{r.Seconds, r.Trace, r.Quick} }

// runDiff compares the reports in baseDir and newDir, pairing runs by
// file order (alternate the two sides when producing them). It exits 1
// when any end-to-end metric regressed beyond its bound, failed a check
// or is missing, and 2 when the reports were not all made with the
// same run settings.
func runDiff(root, baseDir, newDir string, stdout, stderr io.Writer) int {
	spec, err := readSpec(root)
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 2
	}
	base, err := loadReports(baseDir)
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 2
	}
	nw, err := loadReports(newDir)
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 2
	}
	want := settingsOf(base[0])
	for _, reps := range [][]*Report{base, nw} {
		for _, r := range reps {
			if got := settingsOf(r); got != want {
				fmt.Fprintf(stderr, "benchmark: reports differ in run settings: %+v and %+v\n", want, got)
				return 2
			}
		}
	}
	tw := tabwriter.NewWriter(stdout, 2, 8, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tbase median [p25, p75]\tnew median [p25, p75]\twins\tbound\tverdict")
	code := 0
	for _, w := range workloads {
		for _, e := range spec.EndToEnd {
			bs, ns := collect(base, w.name, e.Name), collect(nw, w.name, e.Name)
			lower := e.Better == "lower"
			v := verdict(bs, ns, lower, e.Bound)
			if v == "worse" || v == "failed" || v == "missing" {
				code = 1
			}
			if v == "missing" {
				fmt.Fprintf(tw, "%s\t%s\t-\t-\t-\t%.2f\t%s\n", w.name, e.Name, e.Bound, v)
				continue
			}
			won, pairs := wins(bs, ns, lower)
			b, n := summarize(bs.present(), e.Unit), summarize(ns.present(), e.Unit)
			fmt.Fprintf(tw, "%s\t%s\t%.4g [%.4g, %.4g] %s\t%.4g [%.4g, %.4g] %s\t%d/%d\t%.2f\t%s\n",
				w.name, e.Name, b.Value, b.P25, b.P75, e.Unit, n.Value, n.P25, n.P75, e.Unit, won, pairs, e.Bound, v)
		}
	}
	if err := tw.Flush(); err != nil {
		return 2
	}
	return code
}
