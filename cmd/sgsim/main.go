// Command sgsim runs a program on the R10000-like timing simulator and
// prints the statistics. The program is either a built-in workload
// kernel (-w) or an assembly file (-f, in the syntax of internal/asm).
// The one cell is simulated by bench.Runner, as sgbench and sgserved
// simulate theirs, so -cpuprofile profiles the benchmarked path.
//
// Usage:
//
//	sgsim -w compress -scheme proposed
//	sgsim -f prog.s -scheme 2bit -entries 64
//	sgsim -w xlisp -cpuprofile cpu.pprof -memprofile mem.pprof
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"

	"specguard/internal/asm"
	"specguard/internal/bench"
	"specguard/internal/buildinfo"
	"specguard/internal/machine"
)

func main() {
	workload := flag.String("w", "", "built-in workload: compress|espresso|xlisp|grep")
	file := flag.String("f", "", "assembly file to simulate")
	scheme := flag.String("scheme", "2bit", "2bit | gshare | proposed | perfect")
	entries := flag.Int("entries", 512, fmt.Sprintf("predictor table size, 1-%d (a power of two for gshare)", machine.MaxPredictorEntries))
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	version := flag.Bool("version", false, "print version and exit")
	flag.Parse()

	if *version {
		fmt.Println(buildinfo.Version("sgsim"))
		return
	}
	if (*workload == "") == (*file == "") {
		fmt.Fprintln(os.Stderr, "sgsim: exactly one of -w or -f is required")
		os.Exit(2)
	}
	r := bench.NewRunner()
	spec, err := cellSpec(r.Model, *scheme, *entries)
	if err != nil {
		fmt.Fprintln(os.Stderr, "sgsim:", err)
		flag.Usage()
		os.Exit(2)
	}

	if err := run(r, spec, *workload, *file, *cpuprofile, *memprofile); err != nil {
		fmt.Fprintln(os.Stderr, "sgsim:", err)
		os.Exit(1)
	}
}

// cellSpec returns the Runner spec of one (scheme, table size) cell on
// base, less its workload, or a usage error: an unknown scheme, or a
// size the predictor cannot take (outside 1..machine.MaxPredictorEntries,
// or not a power of two for gshare). A gshare cell runs on a Clone of
// base with an 8-bit-history gshare predictor of that size.
func cellSpec(base *machine.Model, scheme string, entries int) (bench.Spec, error) {
	m := base.Clone()
	m.PredictorEntries = entries
	spec := bench.Spec{Entries: entries}
	switch scheme {
	case "2bit":
		spec.Scheme = bench.SchemeTwoBit
	case "gshare":
		m.Predictor, m.HistoryBits = machine.PredGShare, 8
		spec.Scheme, spec.Model = bench.SchemeTwoBit, m
	case "proposed":
		spec.Scheme = bench.SchemeProposed
	case "perfect":
		spec.Scheme = bench.SchemePerfect
	default:
		return bench.Spec{}, fmt.Errorf("unknown scheme %q", scheme)
	}
	if err := m.Validate(); err != nil {
		return bench.Spec{}, fmt.Errorf("-entries %d: %w", entries, err)
	}
	return spec, nil
}

func run(r *bench.Runner, spec bench.Spec, workload, file, cpuprofile, memprofile string) error {
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
				fmt.Fprintln(os.Stderr, "sgsim:", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "sgsim:", err)
			}
		}()
	}

	if workload != "" {
		w, err := bench.ByName(workload)
		if err != nil {
			return err
		}
		spec.Workload = w
	} else {
		src, err := os.ReadFile(file)
		if err != nil {
			return err
		}
		p, err := asm.Parse(string(src))
		if err != nil {
			return err
		}
		spec.Workload = bench.Workload{Name: file, Build: p.Clone}
	}

	res, err := r.RunSpec(context.Background(), spec)
	if err != nil {
		return err
	}
	if res.Report != nil {
		fmt.Print(res.Report.String())
	}
	fmt.Print(res.Stats.String())
	return nil
}
