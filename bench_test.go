// Top-level benchmark harness: one benchmark per table and figure of
// the paper's evaluation, plus the ablation studies DESIGN.md calls
// for. Each benchmark reports its headline quantities through
// b.ReportMetric, so `go test -bench . -benchmem` regenerates the
// paper's numbers alongside the usual Go timing output.
package specguard_test

import (
	"context"
	"fmt"
	"math"
	"testing"

	"specguard/internal/asm"
	"specguard/internal/bench"
	"specguard/internal/core"
	"specguard/internal/interp"
	"specguard/internal/isa"
	"specguard/internal/machine"
	"specguard/internal/pipeline"
	"specguard/internal/predict"
	"specguard/internal/profile"
	"specguard/internal/sched"
	"specguard/internal/xform"
)

// BenchmarkTable1Characteristics regenerates Table 1: each kernel's
// dynamic instruction count, branch density and 2-bit prediction
// accuracy (reported per sub-benchmark).
func BenchmarkTable1Characteristics(b *testing.B) {
	for _, w := range bench.All() {
		w := w
		b.Run(w.Name, func(b *testing.B) {
			var rows []bench.Table1Row
			for i := 0; i < b.N; i++ {
				r := bench.NewRunner()
				res, err := r.RunSpec(context.Background(), bench.Spec{Workload: w, Scheme: bench.SchemeTwoBit})
				if err != nil {
					b.Fatal(err)
				}
				rows = bench.Table1([]bench.Result{res})
			}
			b.ReportMetric(float64(rows[0].DynInstrs)/1e6, "Minstrs")
			b.ReportMetric(rows[0].BranchPct, "branch%")
			b.ReportMetric(rows[0].PredictPct, "predicted%")
		})
	}
}

// BenchmarkTable3ReservationStations regenerates Table 3's
// branch-stack occupancy per scheme (the paper's signature:
// 2-bit ≪ proposed < perfect).
func BenchmarkTable3ReservationStations(b *testing.B) {
	for _, w := range bench.All() {
		for _, s := range []bench.Scheme{bench.SchemeTwoBit, bench.SchemeProposed, bench.SchemePerfect} {
			w, s := w, s
			b.Run(fmt.Sprintf("%s/%s", w.Name, s), func(b *testing.B) {
				var st pipeline.Stats
				for i := 0; i < b.N; i++ {
					r := bench.NewRunner()
					res, err := r.RunSpec(context.Background(), bench.Spec{Workload: w, Scheme: s})
					if err != nil {
						b.Fatal(err)
					}
					st = res.Stats
				}
				b.ReportMetric(st.QueueFullPct(pipeline.QBranch), "BRfull%")
				b.ReportMetric(st.QueueFullPct(pipeline.QAddr), "LDSTfull%")
				b.ReportMetric(st.QueueFullPct(pipeline.QInt), "ALUfull%")
			})
		}
	}
}

// BenchmarkTable4FunctionalUnitsIPC regenerates Table 4: functional
// unit saturation and IPC per workload and scheme.
func BenchmarkTable4FunctionalUnitsIPC(b *testing.B) {
	for _, w := range bench.All() {
		for _, s := range []bench.Scheme{bench.SchemeTwoBit, bench.SchemeProposed, bench.SchemePerfect} {
			w, s := w, s
			b.Run(fmt.Sprintf("%s/%s", w.Name, s), func(b *testing.B) {
				var st pipeline.Stats
				for i := 0; i < b.N; i++ {
					r := bench.NewRunner()
					res, err := r.RunSpec(context.Background(), bench.Spec{Workload: w, Scheme: s})
					if err != nil {
						b.Fatal(err)
					}
					st = res.Stats
				}
				b.ReportMetric(st.UnitFullPct(isa.UnitALU), "ALUfull%")
				b.ReportMetric(st.UnitFullPct(isa.UnitLdSt), "LDSTfull%")
				b.ReportMetric(st.UnitFullPct(isa.UnitShift), "SFTfull%")
				b.ReportMetric(st.IPC(), "IPC")
			})
		}
	}
}

// BenchmarkHeadlineSpeedup reports the paper's headline: per-workload
// proposed/baseline IPC ratio and the suite geomean (paper: 1.3–1.6×).
func BenchmarkHeadlineSpeedup(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := bench.NewRunner()
		results, err := r.RunAll()
		if err != nil {
			b.Fatal(err)
		}
		product := 1.0
		hs := bench.Headlines(results)
		for _, h := range hs {
			b.ReportMetric(h.CycleSpeedup(), h.Name+"-x")
			product *= h.CycleSpeedup()
		}
		b.ReportMetric(math.Pow(product, 0.25), "geomean-x")
	}
}

// BenchmarkFigure2CostModel reproduces the Fig. 2 worked example's
// exact numbers through the analytic schedule model.
func BenchmarkFigure2CostModel(b *testing.B) {
	e := core.PaperFig2()
	var base, spec, guard float64
	for i := 0; i < b.N; i++ {
		base = e.BaseCycles()
		spec = e.SpeculatedCycles(2, 2, 2)
		guard = e.GuardedCycles()
	}
	b.ReportMetric(base, "base-cycles")   // paper: 3100
	b.ReportMetric(spec, "spec-cycles")   // paper: 2900
	b.ReportMetric(guard, "guard-cycles") // paper: 3600
}

// BenchmarkFigure4SplitSchedule reproduces Fig. 4's 2756-cycle split
// schedule.
func BenchmarkFigure4SplitSchedule(b *testing.B) {
	e := core.PaperFig2()
	var split float64
	for i := 0; i < b.N; i++ {
		split = e.SplitCycles(core.PaperFig4Phases())
	}
	b.ReportMetric(split, "split-cycles") // paper: 2756
}

// BenchmarkAblationPolicies measures each optimizer arm's individual
// contribution — the title's "individual/combined effects". Metric:
// suite geomean IPC under the 2-bit scheme. The four workloads of each
// configuration fan out in parallel via RunProposedOptsAll.
func BenchmarkAblationPolicies(b *testing.B) {
	configs := []struct {
		name string
		opts core.Options
	}{
		{"combined", core.Options{}},
		{"no-likely", core.Options{DisableLikely: true}},
		{"no-guarding", core.Options{DisableGuarding: true}},
		{"no-splitting", core.Options{DisableSplitting: true}},
		{"no-speculation", core.Options{DisableSpeculation: true}},
		{"likely-only", core.Options{DisableGuarding: true, DisableSplitting: true, DisableSpeculation: true}},
		{"guarding-only", core.Options{DisableLikely: true, DisableSplitting: true, DisableSpeculation: true}},
	}
	for _, cfg := range configs {
		cfg := cfg
		b.Run(cfg.name, func(b *testing.B) {
			var geo float64
			for i := 0; i < b.N; i++ {
				r := bench.NewRunner()
				results, err := r.RunProposedOptsAll(cfg.opts)
				if err != nil {
					b.Fatal(err)
				}
				product := 1.0
				for _, res := range results {
					product *= res.Stats.IPC()
				}
				geo = math.Pow(product, 0.25)
			}
			b.ReportMetric(geo, "geomeanIPC")
		})
	}
}

// BenchmarkAblationPHT sweeps the 2-bit predictor's table size — the
// aliasing mechanism behind the paper's claim that removing branches
// (likely conversion, guarding) helps the survivors' prediction.
func BenchmarkAblationPHT(b *testing.B) {
	for _, entries := range []int{16, 64, 512} {
		entries := entries
		b.Run(fmt.Sprintf("entries=%d", entries), func(b *testing.B) {
			var baseIPC, propIPC float64
			for i := 0; i < b.N; i++ {
				r := bench.NewRunner()
				r.PredictorEntries = entries
				pb, pp := 1.0, 1.0
				for _, w := range bench.All() {
					base, err := r.RunSpec(context.Background(), bench.Spec{Workload: w, Scheme: bench.SchemeTwoBit})
					if err != nil {
						b.Fatal(err)
					}
					prop, err := r.RunSpec(context.Background(), bench.Spec{Workload: w, Scheme: bench.SchemeProposed})
					if err != nil {
						b.Fatal(err)
					}
					pb *= base.Stats.IPC()
					pp *= prop.Stats.IPC()
				}
				baseIPC, propIPC = math.Pow(pb, 0.25), math.Pow(pp, 0.25)
			}
			b.ReportMetric(baseIPC, "baseIPC")
			b.ReportMetric(propIPC, "proposedIPC")
			b.ReportMetric(propIPC/baseIPC, "speedup-x")
		})
	}
}

// BenchmarkAblationQueues sweeps the branch-stack depth, the structural
// resource whose occupancy Table 3 tracks.
func BenchmarkAblationQueues(b *testing.B) {
	w := bench.Compress()
	for _, depth := range []int{2, 4, 8, 16} {
		depth := depth
		b.Run(fmt.Sprintf("branch-stack=%d", depth), func(b *testing.B) {
			var st pipeline.Stats
			for i := 0; i < b.N; i++ {
				r := bench.NewRunner()
				r.Model = machine.R10000()
				r.Model.BranchStack = depth
				res, err := r.RunSpec(context.Background(), bench.Spec{Workload: w, Scheme: bench.SchemePerfect})
				if err != nil {
					b.Fatal(err)
				}
				st = res.Stats
			}
			b.ReportMetric(st.IPC(), "IPC")
			b.ReportMetric(st.QueueFullPct(pipeline.QBranch), "BRfull%")
		})
	}
}

// BenchmarkAblationThresholds sweeps the Fig. 6 gates — the 0.95
// branch-likely threshold and the 0.65 unbiased gate — to show the
// paper's magic numbers sit on a plateau (metric: suite geomean IPC
// under the 2-bit scheme).
func BenchmarkAblationThresholds(b *testing.B) {
	configs := []struct {
		name           string
		likely, unbias float64
	}{
		{"paper-0.95-0.65", 0.95, 0.65},
		{"likely-0.90", 0.90, 0.65},
		{"likely-0.99", 0.99, 0.65},
		{"unbias-0.55", 0.95, 0.55},
		{"unbias-0.80", 0.95, 0.80},
	}
	for _, cfg := range configs {
		cfg := cfg
		b.Run(cfg.name, func(b *testing.B) {
			var geo float64
			for i := 0; i < b.N; i++ {
				r := bench.NewRunner()
				results, err := r.RunProposedOptsAll(core.Options{
					LikelyThreshold: cfg.likely,
					UnbiasedMax:     cfg.unbias,
				})
				if err != nil {
					b.Fatal(err)
				}
				product := 1.0
				for _, res := range results {
					product *= res.Stats.IPC()
				}
				geo = math.Pow(product, 0.25)
			}
			b.ReportMetric(geo, "geomeanIPC")
		})
	}
}

// BenchmarkAblationPredictor compares hardware prediction schemes on
// the ORIGINAL workloads — the paper's future-work direction ("the
// algorithm can be extended to handle more complex correlations"): a
// gshare correlating predictor captures part of what the compiler
// techniques capture (e.g. grep's cyclic fold branch), bounding the
// compiler's advantage over smarter hardware.
func BenchmarkAblationPredictor(b *testing.B) {
	preds := []struct {
		name string
		mk   func() predict.Predictor
	}{
		{"2bit-512", func() predict.Predictor { return predict.NewTwoBit(512) }},
		{"gshare-512", func() predict.Predictor { return predict.NewGShare(512, 8) }},
		{"perfect", func() predict.Predictor { return predict.NewPerfect() }},
	}
	for _, pc := range preds {
		pc := pc
		b.Run(pc.name, func(b *testing.B) {
			var geo, acc float64
			for i := 0; i < b.N; i++ {
				product := 1.0
				var lookups, correct int64
				for _, w := range bench.All() {
					pipe, err := pipeline.New(pipeline.Config{Model: machine.R10000(), Predictor: pc.mk()})
					if err != nil {
						b.Fatal(err)
					}
					st, err := pipe.Run(workloadMachine(b, w))
					if err != nil {
						b.Fatal(err)
					}
					product *= st.IPC()
					lookups += st.Predictor.Lookups
					correct += st.Predictor.Correct
				}
				geo = math.Pow(product, 0.25)
				acc = float64(correct) / float64(lookups)
			}
			b.ReportMetric(geo, "geomeanIPC")
			b.ReportMetric(100*acc, "accuracy%")
		})
	}
}

// ---- Component micro-benchmarks ----

// workloadMachine returns a predecoded machine of w's program with w's
// input installed: the live event stream the timing model consumes.
func workloadMachine(b *testing.B, w bench.Workload) *interp.Machine {
	code, err := interp.Predecode(w.Build(), nil)
	if err != nil {
		b.Fatal(err)
	}
	m := code.NewMachine(interp.Options{})
	if err := w.Init(m); err != nil {
		b.Fatal(err)
	}
	return m
}

// BenchmarkPipelineThroughput measures the simulation rate of the
// timing simulator fed live by a predecoded machine, on the compress
// kernel.
func BenchmarkPipelineThroughput(b *testing.B) {
	w := bench.Compress()
	var committed int64
	for i := 0; i < b.N; i++ {
		pipe, err := pipeline.New(pipeline.Config{Model: machine.R10000(), Predictor: predict.NewTwoBit(512)})
		if err != nil {
			b.Fatal(err)
		}
		st, err := pipe.Run(workloadMachine(b, w))
		if err != nil {
			b.Fatal(err)
		}
		committed = st.Committed
	}
	b.ReportMetric(float64(committed)*float64(b.N)/b.Elapsed().Seconds()/1e6, "Minstr/s")
}

// BenchmarkInterpreter measures architectural execution alone.
func BenchmarkInterpreter(b *testing.B) {
	w := bench.Grep()
	for i := 0; i < b.N; i++ {
		m, err := interp.New(w.Build(), nil, interp.Options{})
		if err != nil {
			b.Fatal(err)
		}
		if err := w.Init(m); err != nil {
			b.Fatal(err)
		}
		if _, err := m.Run(nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOptimizer measures the full Fig. 6 pass (profile reuse).
func BenchmarkOptimizer(b *testing.B) {
	w := bench.Compress()
	prof, _, err := profile.Collect(w.Build(), interp.Options{}, w.Init)
	if err != nil {
		b.Fatal(err)
	}
	model := machine.R10000()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := w.Build()
		if _, err := core.Optimize(p, prof, model, core.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkScheduler measures list scheduling of a mixed block.
func BenchmarkScheduler(b *testing.B) {
	ins := []*isa.Instr{
		{Op: isa.Lw, Rd: isa.R(1), Rs: isa.R(9)},
		{Op: isa.Add, Rd: isa.R(2), Rs: isa.R(1), Imm: 1},
		{Op: isa.Sll, Rd: isa.R(3), Rs: isa.R(2), Imm: 2},
		{Op: isa.Xor, Rd: isa.R(4), Rs: isa.R(3), Rt: isa.R(2)},
		{Op: isa.Sw, Rd: isa.R(4), Rs: isa.R(9), Imm: 8},
		{Op: isa.Add, Rd: isa.R(5), Rs: isa.R(9), Imm: 4},
		{Op: isa.FAdd, Rd: isa.F(1), Rs: isa.F(2), Rt: isa.F(3)},
		{Op: isa.Beq, Rs: isa.R(4), Rt: isa.R(5), Label: "L"},
	}
	m := machine.R10000()
	for i := 0; i < b.N; i++ {
		sched.Schedule(ins, m)
	}
}

// BenchmarkPredictor measures 2-bit table updates.
func BenchmarkPredictor(b *testing.B) {
	p := predict.NewTwoBit(512)
	for i := 0; i < b.N; i++ {
		pc := uint64(i*4) % 8192
		taken := i%3 != 0
		p.Predict(pc, isa.Beq, taken)
		p.Update(pc, isa.Beq, taken)
	}
}

// BenchmarkProfileSegmentation measures phase analysis of a long
// outcome vector.
func BenchmarkProfileSegmentation(b *testing.B) {
	v := &profile.BitVector{}
	for i := 0; i < 100000; i++ {
		switch {
		case i < 40000:
			v.Append(i%20 != 19)
		case i < 60000:
			v.Append(i%2 == 0)
		default:
			v.Append(i%20 == 19)
		}
	}
	bp := &profile.BranchProfile{Site: "x", Outcomes: v}
	for i := 0; i < b.N; i++ {
		bp.Segments(profile.SegmentOptions{})
	}
}

// BenchmarkSplitBranchTransform measures the split-branch
// transformation itself (profile phases → dispatched versions).
func BenchmarkSplitBranchTransform(b *testing.B) {
	const src = `
func main:
entry:
	li r1, 0
check:
	beq r1, 0, T
F:
	add r2, r2, 1
	j J
T:
	add r2, r2, 2
J:
	add r1, r1, 1
	blt r1, 10, check
exit:
	halt
`
	phases := []xform.Phase{
		{Lo: 0, Hi: 400, Class: profile.SegTaken},
		{Lo: 400, Hi: 600, Class: profile.SegMixed},
		{Lo: 600, Hi: xform.PhaseEnd, Class: profile.SegNotTaken},
	}
	for i := 0; i < b.N; i++ {
		p := asm.MustParse(src)
		f := p.Func("main")
		h := xform.MatchHammock(f, f.Block("check"))
		if h == nil {
			b.Fatal("no hammock")
		}
		if _, err := xform.SplitBranch(f, h, phases, xform.NewIntPool(f), xform.NewPredPool(f)); err != nil {
			b.Fatal(err)
		}
	}
}
