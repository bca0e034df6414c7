// Command sgbench regenerates the paper's evaluation: Tables 1–4, the
// Fig. 2/4 worked example, the headline IPC summary, and the ablation
// studies. With no flags it prints everything. Independent simulations
// run in parallel (bounded by -par, default GOMAXPROCS) with results in
// deterministic table order.
//
// Usage:
//
//	sgbench [-table N] [-figure] [-summary] [-ablation] [-leaks]
//	        [-entries N] [-par N] [-cpuprofile F] [-memprofile F]
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"

	"specguard/internal/bench"
	"specguard/internal/buildinfo"
	"specguard/internal/core"
	"specguard/internal/machine"
)

func main() {
	table := flag.Int("table", 0, "print only table N (1-4)")
	figure := flag.Bool("figure", false, "print only the Fig. 2/4 worked example")
	summary := flag.Bool("summary", false, "print only the headline IPC summary")
	ablation := flag.Bool("ablation", false, "print only the policy ablation")
	leaks := flag.Bool("leaks", false, "print only the speculative-leak ablation (victim kernels, dynamic vs static)")
	entries := flag.Int("entries", 0, "override the 2-bit predictor table size")
	par := flag.Int("par", 0, "max concurrent simulations (0 = GOMAXPROCS, 1 = serial)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	version := flag.Bool("version", false, "print version and exit")
	flag.Parse()

	if *version {
		fmt.Println(buildinfo.Version("sgbench"))
		return
	}

	tableSet := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "table" {
			tableSet = true
		}
	})
	if err := tableRangeErr(*table, tableSet); err != nil {
		fmt.Fprintln(os.Stderr, "sgbench:", err)
		flag.Usage()
		os.Exit(2)
	}

	if err := run(*table, *figure, *summary, *ablation, *leaks, *entries, *par,
		*cpuprofile, *memprofile); err != nil {
		fmt.Fprintln(os.Stderr, "sgbench:", err)
		os.Exit(1)
	}
}

func run(table int, figure, summary, ablation, leaks bool, entries, par int,
	cpuprofile, memprofile string) error {
	if cpuprofile != "" {
		f, err := os.Create(cpuprofile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}
	if memprofile != "" {
		defer func() {
			f, err := os.Create(memprofile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "sgbench:", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "sgbench:", err)
			}
		}()
	}

	newRunner := func() *bench.Runner {
		r := bench.NewRunner()
		r.PredictorEntries = entries
		r.Parallelism = par
		return r
	}

	only := table != 0 || figure || summary || ablation || leaks

	if figure || !only {
		fmt.Println(bench.FormatFigure2())
	}
	if table == 2 || !only {
		fmt.Println(bench.FormatTable2(table2Model(newRunner)))
	}
	needRuns := !only || table == 1 || table == 3 || table == 4 || summary
	if needRuns {
		r := newRunner()
		fmt.Fprintln(os.Stderr, "running 4 workloads x 3 schemes...")
		results, err := r.RunAll()
		if err != nil {
			return err
		}
		if table == 1 || !only {
			fmt.Println(bench.FormatTable1(bench.Table1(results)))
		}
		if table == 3 || !only {
			fmt.Println(bench.FormatTable3(bench.Table3(results)))
		}
		if table == 4 || !only {
			fmt.Println(bench.FormatTable4(bench.Table4(results)))
		}
		if summary || !only {
			fmt.Println(bench.FormatHeadlines(bench.Headlines(results)))
		}
	}
	if ablation || !only {
		if err := printAblation(newRunner); err != nil {
			return err
		}
	}
	if leaks || !only {
		r := newRunner()
		fmt.Fprintln(os.Stderr, "running leak ablation: 2 victims x 3 schemes...")
		results, err := r.RunLeakAll()
		if err != nil {
			return err
		}
		fmt.Println(bench.FormatLeakTable(results))
	}
	return nil
}

// tableRangeErr validates an explicitly set -table value: an
// out-of-range table used to select nothing and exit 0 silently.
func tableRangeErr(table int, set bool) error {
	if set && (table < 1 || table > 4) {
		return fmt.Errorf("-table must be in 1..4, got %d", table)
	}
	return nil
}

// table2Model returns the machine model Table 2 is rendered from: the
// configured runner's, so model overrides echo in the output instead
// of a fresh default runner's.
func table2Model(newRunner func() *bench.Runner) *machine.Model {
	return newRunner().Model
}

// printAblation disables one optimizer arm at a time — the paper
// title's "individual/combined effects". The four workloads of each
// configuration run in parallel.
func printAblation(newRunner func() *bench.Runner) error {
	configs := []struct {
		name string
		opts core.Options
	}{
		{"combined (all arms)", core.Options{}},
		{"no branch-likely", core.Options{DisableLikely: true}},
		{"no guarding", core.Options{DisableGuarding: true}},
		{"no splitting", core.Options{DisableSplitting: true}},
		{"no speculation", core.Options{DisableSpeculation: true}},
		{"likely only", core.Options{DisableGuarding: true, DisableSplitting: true, DisableSpeculation: true}},
		{"guarding only", core.Options{DisableLikely: true, DisableSplitting: true, DisableSpeculation: true}},
	}
	fmt.Println("Ablation: suite IPC per optimizer configuration (2-bit scheme)")
	fmt.Printf("%-22s", "config")
	for _, w := range bench.All() {
		fmt.Printf(" %10s", w.Name)
	}
	fmt.Println()
	for _, cfg := range configs {
		r := newRunner()
		results, err := r.RunProposedOptsAll(cfg.opts)
		if err != nil {
			return err
		}
		fmt.Printf("%-22s", cfg.name)
		for _, res := range results {
			fmt.Printf(" %10.3f", res.Stats.IPC())
		}
		fmt.Println()
	}
	return nil
}
