// Command sgfuzz drives the differential fuzzer over the
// interp/pipeline/xform stack: it generates one structured random
// program per seed and demands that the architectural interpreter, the
// timing pipeline (with its invariant audits enabled), every optimizer
// scheme and the profile serializer all agree (see internal/fuzz).
//
// Failing seeds are shrunk to a minimal reproducer and written to the
// corpus directory as annotated assembly; -replay re-checks a saved
// corpus file.
//
// Usage:
//
//	sgfuzz [-seeds N] [-start S] [-corpus DIR] [-shrink=false] [-v]
//	sgfuzz [-frontend | -batch | -leak | -skip] [-seeds N]
//	sgfuzz -replay FILE
//
// Exit status: 0 when every seed passes, 1 when the oracle found a
// divergence, 2 on usage errors.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"specguard/internal/asm"
	"specguard/internal/buildinfo"
	"specguard/internal/fuzz"
	"specguard/internal/prog"
)

func main() {
	seeds := flag.Int("seeds", 100, "number of seeds to sweep")
	start := flag.Int64("start", 1, "first seed of the sweep")
	corpus := flag.String("corpus", "fuzz-corpus", "directory for failing reproducers")
	doShrink := flag.Bool("shrink", true, "reduce failing programs before saving them")
	replay := flag.String("replay", "", "re-check one saved corpus file and exit")
	frontOnly := flag.Bool("frontend", false, "run only the front-end agreement oracle (interp vs. predecode vs. trace replay)")
	batchOnly := flag.Bool("batch", false, "run only the batch lane-isolation oracle (mixed-config lanes over one trace drain vs one-lane runs)")
	leakOnly := flag.Bool("leak", false, "run only the leak-soundness oracle (static spec-secret-load covers dynamic wrong-path secret accesses)")
	skipOnly := flag.Bool("skip", false, "run only the quiescence fast-forward oracle (skip-enabled vs NoCycleSkip stats equality, single and batched)")
	verbose := flag.Bool("v", false, "print a line per seed")
	version := flag.Bool("version", false, "print version and exit")
	flag.Parse()

	if *version {
		fmt.Println(buildinfo.Version("sgfuzz"))
		return
	}
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "sgfuzz: unexpected arguments: %v\n", flag.Args())
		flag.Usage()
		os.Exit(2)
	}
	if *replay == "" && *seeds <= 0 {
		fmt.Fprintf(os.Stderr, "sgfuzz: -seeds must be positive, got %d\n", *seeds)
		flag.Usage()
		os.Exit(2)
	}

	o := fuzz.NewOracle()
	if *replay != "" {
		os.Exit(replayFile(o, *replay))
	}
	exclusive := 0
	for _, b := range []bool{*frontOnly, *batchOnly, *leakOnly, *skipOnly} {
		if b {
			exclusive++
		}
	}
	if exclusive > 1 {
		fmt.Fprintln(os.Stderr, "sgfuzz: -frontend, -batch, -leak and -skip are mutually exclusive")
		flag.Usage()
		os.Exit(2)
	}
	check := o.Check
	switch {
	case *frontOnly:
		check = o.CheckFrontEnd
	case *batchOnly:
		check = o.CheckBatch
	case *leakOnly:
		check = o.CheckLeakSoundness
	case *skipOnly:
		check = o.CheckSkip
	}
	os.Exit(sweep(o, *start, *seeds, *corpus, *doShrink, check, *verbose))
}

// replayFile re-runs the oracle on one saved reproducer.
func replayFile(o *fuzz.Oracle, path string) int {
	src, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "sgfuzz:", err)
		return 2
	}
	p, err := asm.Parse(string(src))
	if err != nil {
		fmt.Fprintf(os.Stderr, "sgfuzz: %s: %v\n", path, err)
		return 2
	}
	if err := o.Check(p); err != nil {
		fmt.Printf("%s: FAIL: %v\n", path, err)
		return 1
	}
	fmt.Printf("%s: PASS\n", path)
	return 0
}

// sweep runs the given oracle stage over [start, start+seeds) and
// saves shrunk reproducers for every failure.
func sweep(o *fuzz.Oracle, start int64, seeds int, corpus string, doShrink bool,
	check func(*prog.Program) error, verbose bool) int {
	failures := 0
	for i := 0; i < seeds; i++ {
		seed := start + int64(i)
		c := fuzz.Generate(seed)
		err := check(c.Prog)
		if err == nil {
			if verbose {
				fmt.Printf("seed %d: ok (%d instrs)\n", seed, c.Prog.NumInstrs())
			}
			continue
		}
		failures++
		f, ok := err.(*fuzz.Failure)
		if !ok {
			fmt.Fprintf(os.Stderr, "sgfuzz: seed %d: %v\n", seed, err)
			continue
		}
		fmt.Fprintf(os.Stderr, "sgfuzz: seed %d: %v\n", seed, f)
		repro := c.Prog
		if doShrink {
			repro = fuzz.Shrink(o, c.Prog, f.Check, 300)
			fmt.Fprintf(os.Stderr, "sgfuzz: seed %d: shrunk %d -> %d instructions\n",
				seed, c.Prog.NumInstrs(), repro.NumInstrs())
		}
		if path, err := saveCase(corpus, seed, f, repro); err != nil {
			fmt.Fprintln(os.Stderr, "sgfuzz:", err)
		} else {
			fmt.Fprintf(os.Stderr, "sgfuzz: seed %d: reproducer saved to %s\n", seed, path)
		}
	}
	fmt.Printf("sgfuzz: %d seeds, %d failures\n", seeds, failures)
	if failures > 0 {
		return 1
	}
	return 0
}

// saveCase writes one annotated reproducer into the corpus directory.
// The file is plain assembly (the header is comments), so it feeds
// straight back into -replay.
func saveCase(corpus string, seed int64, f *fuzz.Failure, p interface{ String() string }) (string, error) {
	if err := os.MkdirAll(corpus, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(corpus, fmt.Sprintf("seed%05d.sgasm", seed))
	body := fmt.Sprintf("; sgfuzz seed=%d check=%s\n; %s\n%s", seed, f.Check, f.Msg, p.String())
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		return "", err
	}
	return path, nil
}
