package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"specguard/internal/bench"
	"specguard/internal/core"
	"specguard/internal/interp"
	"specguard/internal/machine"
	"specguard/internal/pipeline"
	"specguard/internal/predict"
	"specguard/internal/profile"
	"specguard/internal/prog"
	"specguard/internal/trace"
)

// ablations are the seven optimizer configurations sgbench prints in
// its ablation table.
var ablations = []core.Options{
	{},
	{DisableLikely: true},
	{DisableGuarding: true},
	{DisableSplitting: true},
	{DisableSpeculation: true},
	{DisableGuarding: true, DisableSplitting: true, DisableSpeculation: true},
	{DisableLikely: true, DisableSplitting: true, DisableSpeculation: true},
}

// paperCell names one simulation of the evaluation: the 12 table cells
// (opts nil) followed by 7 ablation rows × 4 workloads.
type paperCell struct {
	w      bench.Workload
	scheme bench.Scheme
	opts   *core.Options // ablation options (Proposed only); nil = table cell
}

func paperCells() []paperCell {
	var cells []paperCell
	for _, w := range bench.All() {
		for _, s := range []bench.Scheme{bench.SchemeTwoBit, bench.SchemeProposed, bench.SchemePerfect} {
			cells = append(cells, paperCell{w: w, scheme: s})
		}
	}
	for i := range ablations {
		for _, w := range bench.All() {
			cells = append(cells, paperCell{w: w, scheme: bench.SchemeProposed, opts: &ablations[i]})
		}
	}
	return cells
}

// paperOp is one untraced operation: a fresh Runner regenerates every
// simulation sgbench prints (RunAll plus the ablation rows).
func paperOp() (*bench.Runner, []pipeline.Stats, error) {
	r := bench.NewRunner()
	res, err := r.RunAll()
	if err != nil {
		return nil, nil, err
	}
	for _, o := range ablations {
		row, err := r.RunProposedOptsAll(o)
		if err != nil {
			return nil, nil, err
		}
		res = append(res, row...)
	}
	stats := make([]pipeline.Stats, len(res))
	for i := range res {
		stats[i] = res[i].Stats
	}
	return r, stats, nil
}

func committed(stats []pipeline.Stats) int64 {
	var n int64
	for i := range stats {
		n += stats[i].Committed
	}
	return n
}

// goldenStats loads the 12 table cells' pinned Stats as compact JSON,
// in table order.
func goldenStats(root string) ([][]byte, error) {
	data, err := os.ReadFile(filepath.Join(root, "internal", "bench", "testdata", "golden_stats.json"))
	if err != nil {
		return nil, err
	}
	var recs []struct {
		Workload, Scheme string
		Stats            json.RawMessage
	}
	if err := json.Unmarshal(data, &recs); err != nil {
		return nil, fmt.Errorf("parsing golden stats: %w", err)
	}
	if len(recs) != 12 {
		return nil, fmt.Errorf("golden stats hold %d cells, want 12", len(recs))
	}
	out := make([][]byte, len(recs))
	for i, r := range recs {
		out[i] = compact(r.Stats)
	}
	return out, nil
}

// compact strips insignificant whitespace, so JSON encodings compare
// byte for byte.
func compact(raw json.RawMessage) []byte {
	var b bytes.Buffer
	if json.Compact(&b, raw) != nil {
		return raw
	}
	return b.Bytes()
}

func statsJSON(s pipeline.Stats) []byte {
	b, _ := json.Marshal(s) // Stats holds only numbers, slices and maps: it always encodes
	return b
}

// checkPaper compares an operation's 40 Stats with the golden table
// cells and, when ref is not nil, with the warm-up operation's Stats.
func checkPaper(stats, ref []pipeline.Stats, golden [][]byte) error {
	if want := 3*len(bench.All()) + len(ablations)*len(bench.All()); len(stats) != want {
		return fmt.Errorf("paper-cold: %d cells, want %d", len(stats), want)
	}
	for i := range golden {
		if !bytes.Equal(statsJSON(stats[i]), golden[i]) {
			return fmt.Errorf("paper-cold: table cell %d Stats differ from golden_stats.json", i)
		}
	}
	for i := range ref {
		if !bytes.Equal(statsJSON(stats[i]), statsJSON(ref[i])) {
			return fmt.Errorf("paper-cold: cell %d Stats differ from the warm-up operation's", i)
		}
	}
	return nil
}

// paperCold measures the cold evaluation: each operation regenerates
// every simulation sgbench prints with a fresh Runner. The seed is
// unused: the paper's evaluation is fixed.
func paperCold(env *runEnv) (*result, error) {
	golden, err := goldenStats(env.root)
	if err != nil {
		return nil, err
	}
	res := &result{}
	_, ref, err := paperOp() // warm-up operation
	if err != nil {
		return nil, err
	}
	res.check(checkPaper(ref, nil, golden))
	if !env.setupDone() {
		return res, nil
	}
	if env.trace {
		return paperTraced(env, ref, golden, res)
	}
	// The host's speed is sampled before the first operation and after
	// every one.
	host := &hostRef{}
	host.sample(1)
	var ops []opSample
	for env.more(len(ops), 8) {
		var stats []pipeline.Stats
		s, err := timeOp(func() (int64, error) {
			var err error
			_, stats, err = paperOp()
			return committed(stats), err
		})
		if err == nil {
			err = checkPaper(stats, ref, golden)
		}
		res.check(err)
		if err == nil {
			ops = append(ops, s)
		}
		host.sample(1)
	}
	res.metrics, res.host = closedMetrics(ops, host), host
	res.extra = map[string]any{"op_ms": wallMS(ops), "host_ref": host.report()}
	return res, nil
}

// decomposition is the paper-cold operation replayed as explicit calls
// into each layer, serially, with a span around every call (tr nil:
// no spans).
type decomposition struct {
	tr      *tracer
	model   *machine.Model
	op      int // root span of the current operation
	id      int
	traces  []*trace.Trace // the last operation's captures
	skipped int64
	cycles  int64
}

type traceID struct {
	workload string
	fp       uint64
}

func (d *decomposition) timed(name string, f func() error) error {
	i := d.tr.begin(name, d.op, d.id)
	err := f()
	d.tr.end(i)
	return err
}

// capture predecodes p and captures its trace under w's input image,
// feeding visit.
func (d *decomposition) capture(w bench.Workload, p *prog.Program, visit func(*interp.Event)) (*trace.Trace, interp.Result, error) {
	var code *interp.Code
	err := d.timed("interp.predecode", func() (err error) {
		code, err = interp.Predecode(p, nil)
		return err
	})
	if err != nil {
		return nil, interp.Result{}, err
	}
	var tr *trace.Trace
	var res interp.Result
	err = d.timed("trace.capture", func() (err error) {
		tr, res, err = trace.Capture(code, interp.Options{}, w.Init, visit)
		return err
	})
	if err == nil {
		d.traces = append(d.traces, tr)
	}
	return tr, res, err
}

// profiled is the paper's instrumented run of w: it records the branch
// profile and captures the original program's trace.
func (d *decomposition) profiled(w bench.Workload) (*profile.Profile, *trace.Trace, error) {
	prof := profile.NewProfile()
	tr, res, err := d.capture(w, w.Build(), func(ev *interp.Event) {
		if ev.Branch {
			prof.Record(ev.BranchSite, ev.Taken)
		}
	})
	if err != nil {
		return nil, nil, err
	}
	prof.DynInstrs, prof.Annulled = res.DynInstrs, res.Annulled
	return prof, tr, nil
}

// optimize rewrites p in place, under a span.
func (d *decomposition) optimize(p *prog.Program, prof *profile.Profile, opts core.Options) error {
	return d.timed("core.optimize", func() error {
		_, err := core.Optimize(p, prof, d.model, opts)
		return err
	})
}

// run performs one decomposed operation and returns its 40 Stats in
// paperCells order: the profiling run of each workload, then per cell
// the optimizer when the scheme needs it, a capture of any program not
// yet traced, and a single-lane timing run.
func (d *decomposition) run() ([]pipeline.Stats, error) {
	d.id++
	d.op = d.tr.begin("paper-cold.op", -1, d.id)
	defer d.tr.end(d.op)
	d.traces = d.traces[:0]
	traces := map[traceID]*trace.Trace{}
	profiles := map[string]*profile.Profile{}
	for _, w := range bench.All() {
		prof, tr, err := d.profiled(w)
		if err != nil {
			return nil, err
		}
		profiles[w.Name] = prof
		traces[traceID{w.Name, w.Build().Fingerprint()}] = tr
	}
	cells := paperCells()
	out := make([]pipeline.Stats, len(cells))
	for i, c := range cells {
		p := c.w.Build()
		var pred predict.Predictor = predict.NewTwoBit(d.model.PredictorEntries)
		switch {
		case c.scheme == bench.SchemePerfect:
			pred = predict.NewPerfect()
		case c.scheme == bench.SchemeProposed:
			opts := c.w.Opt
			if c.opts != nil {
				opts = *c.opts
			}
			if err := d.optimize(p, profiles[c.w.Name], opts); err != nil {
				return nil, err
			}
		}
		id := traceID{c.w.Name, p.Fingerprint()}
		tr := traces[id]
		if tr == nil {
			var err error
			if tr, _, err = d.capture(c.w, p, nil); err != nil {
				return nil, err
			}
			traces[id] = tr
		}
		err := d.timed("pipeline.run", func() error {
			pipe, err := pipeline.New(pipeline.Config{Model: d.model, Predictor: pred})
			if err != nil {
				return err
			}
			out[i], err = pipe.Run(tr.NewReader())
			d.skipped += pipe.SkipStats().SkippedCycles
			d.cycles += out[i].Cycles
			return err
		})
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// paperLayers are the span names whose self times make up a traced
// paper-cold operation, with the share metric each one reports.
var paperLayers = []struct{ span, metric string }{
	{"interp.predecode", "interp.predecode_pct"},
	{"trace.capture", "trace.capture_pct"},
	{"core.optimize", "core.optimize_pct"},
	{"pipeline.run", "pipeline.single_pct"},
}

// paperTraced is the traced paper-cold run. Plain and traced
// decompositions alternate under the CPU profiler, so their difference
// is the cost of the spans; the traced Stats must equal the untraced
// run's, which shows the decomposition is faithful.
func paperTraced(env *runEnv, ref []pipeline.Stats, golden [][]byte, res *result) (*result, error) {
	// One Runner operation gives the Runner's counters and its parallel
	// efficiency.
	var r *bench.Runner
	runnerOp, err := timeOp(func() (int64, error) {
		var stats []pipeline.Stats
		var err error
		r, stats, err = paperOp()
		return committed(stats), err
	})
	if err != nil {
		return nil, err
	}
	plain := &decomposition{model: machine.R10000()}
	traced := &decomposition{model: machine.R10000(), tr: newTracer()}
	stop, err := cpuProfile(env.traceDir)
	if err != nil {
		return nil, err
	}
	var plainOps, tracedOps []opSample
	for env.more(len(tracedOps), 3) {
		for _, d := range []*decomposition{plain, traced} {
			var stats []pipeline.Stats
			s, err := timeOp(func() (int64, error) {
				var err error
				stats, err = d.run()
				return committed(stats), err
			})
			if err == nil {
				err = checkPaper(stats, ref, golden)
			}
			res.check(err)
			switch {
			case err != nil:
			case d == plain:
				plainOps = append(plainOps, s)
			default:
				tracedOps = append(tracedOps, s)
			}
		}
	}
	if err := stop(); err != nil {
		return nil, err
	}
	if len(tracedOps) == 0 || len(plainOps) == 0 {
		return nil, fmt.Errorf("paper-cold: no decomposed operation completed: %v", res.errors)
	}

	m := newLayerMetrics()
	if _, err := profileLayers(m, env.traceDir); err != nil {
		return nil, err
	}
	ops := float64(len(tracedOps))
	var wall time.Duration
	for _, s := range tracedOps {
		wall += s.wall
	}
	self, count := selfTimes(traced.tr.spans)
	var layers time.Duration
	seconds := map[string]float64{}
	for _, l := range paperLayers {
		layers += self[l.span]
		seconds[l.span] = self[l.span].Seconds() / ops
		m.set(l.metric, 100*ratio(self[l.span].Seconds(), wall.Seconds()))
	}
	reconcile := 100 * ratio(layers.Seconds(), wall.Seconds())
	if reconcile < 90 || reconcile > 110 {
		res.check(fmt.Errorf("paper-cold: layer self times cover %.1f%% of the traced wall time, want 90-110%%", reconcile))
	}
	plainEval, tracedEval := summarize(wallMS(plainOps), "ms").Value, summarize(wallMS(tracedOps), "ms").Value
	if err := replayTrace(m, traced.traces); err != nil {
		return nil, err
	}
	m.set("trace.captures", float64(count["trace.capture"])/ops)
	m.set("core.optimize_calls", float64(count["core.optimize"])/ops)
	m.set("pipeline.single_minstr_per_s", ratio(float64(committed(ref)), seconds["pipeline.run"])/1e6)
	m.set("pipeline.skip_rate", ratio(float64(traced.skipped), float64(traced.cycles)))
	m.set("bench.trace_drains", float64(r.TraceDrains()))
	m.set("bench.lanes_per_drain", ratio(float64(r.SimLanes()), float64(r.TraceDrains())))
	m.set("bench.par_efficiency", ratio(runnerOp.cpu.Seconds(), runnerOp.wall.Seconds()*float64(runtime.GOMAXPROCS(0))))
	m.set("tracing.overhead_pct", 100*ratio(tracedEval-plainEval, plainEval))
	m.set("tracing.reconcile_pct", reconcile)
	res.metrics = m
	res.extra = map[string]any{
		"layer_s_per_op":        seconds,
		"traced_eval_s":         tracedEval / 1e3,
		"untraced_eval_s":       plainEval / 1e3,
		"runner_eval_s":         runnerOp.wall.Seconds(),
		"decomposed_operations": len(tracedOps) + len(plainOps),
	}
	return res, writeChromeTrace(filepath.Join(env.traceDir, "trace.json"), traced.tr.spans)
}

// workloadTraces captures the traces a warm Runner holds for the
// workloads: each original program's and, with optimized, each default
// Proposed program's.
func workloadTraces(optimized bool) ([]*trace.Trace, error) {
	d := &decomposition{model: machine.R10000()}
	for _, w := range bench.All() {
		prof, _, err := d.profiled(w)
		if err != nil {
			return nil, err
		}
		if !optimized {
			continue
		}
		p := w.Build()
		if err := d.optimize(p, prof, w.Opt); err != nil {
			return nil, err
		}
		if _, _, err := d.capture(w, p, nil); err != nil {
			return nil, err
		}
	}
	return d.traces, nil
}

func wallMS(ops []opSample) []float64 {
	out := make([]float64, len(ops))
	for i, s := range ops {
		out[i] = ms(s.wall)
	}
	return out
}

// replayTrace sets the trace layer's density and packed-trace replay
// rate: traces drained with a bare Reader, no timing model attached,
// timed over the fastest of three passes.
func replayTrace(m layerMetrics, traces []*trace.Trace) error {
	var events, size int64
	for _, tr := range traces {
		events += tr.Events()
		size += int64(tr.SizeBytes())
	}
	best := time.Duration(math.MaxInt64)
	var ev interp.Event
	for pass := 0; pass < 3; pass++ {
		t0 := time.Now()
		for _, tr := range traces {
			rd := tr.NewReader()
			for {
				ok, err := rd.NextInto(&ev)
				if err != nil {
					return fmt.Errorf("replaying a trace: %w", err)
				}
				if !ok {
					break
				}
			}
		}
		best = min(best, time.Since(t0))
	}
	m.set("trace.bytes_per_kevent", 1000*ratio(float64(size), float64(events)))
	m.set("trace.replay_minstr_per_s", ratio(float64(events), best.Seconds())/1e6)
	return nil
}
