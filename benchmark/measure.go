package main

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// Metric is one reported number (the median of its samples unless its
// maker says otherwise), their quartiles and the sample count.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	P25   float64 `json:"p25"`
	P75   float64 `json:"p75"`
	N     int     `json:"n"`
}

// quantile returns the q-quantile of sorted xs by linear interpolation
// between closest ranks, the "exclusive" method of Python's
// statistics.quantiles (clamped to the sample range).
func quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	pos := q*float64(n+1) - 1
	if pos <= 0 {
		return sorted[0]
	}
	if pos >= float64(n-1) {
		return sorted[n-1]
	}
	i := int(pos)
	frac := pos - float64(i)
	return sorted[i] + frac*(sorted[i+1]-sorted[i])
}

// summarize reduces samples to a Metric.
func summarize(samples []float64, unit string) Metric {
	xs := append([]float64(nil), samples...)
	sort.Float64s(xs)
	return Metric{Value: quantile(xs, 0.5), Unit: unit, P25: quantile(xs, 0.25), P75: quantile(xs, 0.75), N: len(xs)}
}

// single reports one exact value (a count or a ratio measured once).
func single(v float64, unit string) Metric {
	return Metric{Value: v, Unit: unit, P25: v, P75: v, N: 1}
}

// percentile returns the q-quantile of unsorted samples.
func percentile(samples []float64, q float64) float64 {
	xs := append([]float64(nil), samples...)
	sort.Float64s(xs)
	return quantile(xs, q)
}

// Tail is a latency tail: the highest quantile of the samples that has
// at least ten samples beyond it, that quantile and the sample count. A
// fixed p99 would rest on fewer than ten samples below 1000. Below 20
// samples no quantile above the median qualifies, and Tail is the
// median.
type Tail struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Q     float64 `json:"q"`
	N     int     `json:"n"`
}

func tailOf(samples []float64, unit string) Tail {
	q := max(0.5, 1-10/float64(len(samples)))
	return Tail{Value: percentile(samples, q), Unit: unit, Q: q, N: len(samples)}
}

func mean(xs []float64) float64 {
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return ratio(sum, float64(len(xs)))
}

// withMean reports the mean of samples as the value, keeping their
// quartiles and count.
func withMean(samples []float64, unit string) Metric {
	m := summarize(samples, unit)
	m.Value = mean(samples)
	return m
}

// ratio divides, reading 0 when nothing was measured.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// cpuTime is the process's user+system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// totalAlloc is the cumulative heap allocation of the process.
func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// opSample is one closed-loop operation: wall and CPU time, bytes
// allocated and simulated instructions it committed.
type opSample struct {
	wall, cpu time.Duration
	alloc     uint64
	instrs    int64
}

// timeOp runs op once and measures it.
func timeOp(op func() (int64, error)) (opSample, error) {
	a0, c0, t0 := totalAlloc(), cpuTime(), time.Now()
	n, err := op()
	wall := time.Since(t0)
	return opSample{wall: wall, cpu: cpuTime() - c0, alloc: totalAlloc() - a0, instrs: n}, err
}

// closedMetrics turns closed-loop samples into the end-to-end metrics
// every simulation workload reports: medians over the operations, the
// timings at the nominal host speed of ref (see hostref.go).
func closedMetrics(ops []opSample, ref *hostRef) map[string]Metric {
	var wall, cpu, alloc, rate []float64
	for _, s := range ops {
		wall = append(wall, ms(s.wall))
		cpu = append(cpu, ms(s.cpu))
		alloc = append(alloc, float64(s.alloc)/1e6)
		rate = append(rate, ratio(float64(s.instrs), s.wall.Seconds())/1e6)
	}
	wf, cf := ref.factors()
	return map[string]Metric{
		"latency_ms":       scaled(summarize(wall, "ms"), wf),
		"sim_minstr_per_s": scaled(summarize(rate, "Minstr/s"), 1/wf),
		"cpu_ms_per_op":    scaled(summarize(cpu, "ms"), cf),
		"alloc_mb_per_op":  summarize(alloc, "MB"),
	}
}

// span is one timed interval of a traced run. Parent indexes the
// enclosing span (-1 for a root); spans of one operation or request
// share ID.
type span struct {
	Name   string
	Start  time.Duration
	Dur    time.Duration
	Parent int
	ID     int
	TID    int
}

// tracer keeps spans in memory until the run ends. A nil *tracer
// records nothing, so untraced operations pay one nil check per
// boundary.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its index (-1 when tracing is off).
func (t *tracer) begin(name string, parent, id int) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{Name: name, Start: time.Since(t.t0), Parent: parent, ID: id, TID: 1})
	return len(t.spans) - 1
}

// end closes span i.
func (t *tracer) end(i int) {
	if t == nil || i < 0 {
		return
	}
	t.spans[i].Dur = time.Since(t.t0) - t.spans[i].Start
}

// selfTimes sums each span name's self time, its duration minus the
// part its direct children cover, and counts its spans.
func selfTimes(spans []span) (self map[string]time.Duration, count map[string]int) {
	child := make([]time.Duration, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.Dur
		}
	}
	self, count = map[string]time.Duration{}, map[string]int{}
	for i, s := range spans {
		self[s.Name] += s.Dur - child[i]
		count[s.Name]++
	}
	return self, count
}

// writeChromeTrace writes spans as Chrome trace-event JSON (load it in
// chrome://tracing or Perfetto).
func writeChromeTrace(path string, spans []span) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		TS   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		PID  int            `json:"pid"`
		TID  int            `json:"tid"`
		Args map[string]int `json:"args"`
	}
	evs := make([]event, len(spans))
	for i, s := range spans {
		evs[i] = event{Name: s.Name, Ph: "X", TS: float64(s.Start) / 1e3, Dur: float64(s.Dur) / 1e3,
			PID: 1, TID: s.TID, Args: map[string]int{"id": s.ID, "parent": s.Parent}}
	}
	data, err := json.Marshal(map[string]any{"traceEvents": evs})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// cpuProfile profiles the process's CPU into dir/cpu.pprof until stop
// is called.
func cpuProfile(dir string) (stop func() error, err error) {
	f, err := os.Create(filepath.Join(dir, "cpu.pprof"))
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	return func() error {
		pprof.StopCPUProfile()
		return f.Close()
	}, nil
}

// profSample is one distinct call stack of a CPU profile and the CPU
// time sampled on it. The stack runs from the leaf to the root.
type profSample struct {
	cpu   time.Duration
	stack []string
}

// readProfile lists the samples of dir/cpu.pprof, as printed by
// `go tool pprof -traces`.
func readProfile(dir string) ([]profSample, error) {
	out, err := exec.Command("go", "tool", "pprof", "-traces", filepath.Join(dir, "cpu.pprof")).Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %w", err)
	}
	// After the header, each stack follows a "-----------+---" rule: its
	// first line is "   10ms   pkg.leaf", the rest one caller a line;
	// an inlined frame ends in " (inline)".
	var samples []profSample
	head := false
	for _, line := range strings.Split(string(out), "\n") {
		f := strings.Fields(line)
		switch {
		case strings.HasPrefix(line, "-----------+"):
			head = true
		case len(f) == 0 || len(samples) == 0 && !head:
		case head:
			d, err := pprofDuration(f[0])
			if err != nil || len(f) < 2 {
				return nil, fmt.Errorf("go tool pprof: unexpected stack line %q", line)
			}
			samples = append(samples, profSample{cpu: d, stack: []string{f[1]}})
			head = false
		default:
			s := &samples[len(samples)-1]
			s.stack = append(s.stack, f[0])
		}
	}
	return samples, nil
}

// pprofDuration parses a pprof sample value such as "10ms", "1.20s" or
// "1.50mins".
func pprofDuration(s string) (time.Duration, error) {
	for _, u := range []struct {
		suffix string
		scale  time.Duration
	}{{"hrs", time.Hour}, {"mins", time.Minute}} {
		if v, ok := strings.CutSuffix(s, u.suffix); ok {
			f, err := strconv.ParseFloat(v, 64)
			return time.Duration(f * float64(u.scale)), err
		}
	}
	return time.ParseDuration(s)
}

const (
	pipelinePkg = "specguard/internal/pipeline."
	singleRun   = pipelinePkg + "(*Pipeline).Run"
	batchRun    = pipelinePkg + "(*Batch).Run"
)

// layerFuncs maps the per-layer share metrics onto the function whose
// presence on a sampled stack puts the sample in that layer.
var layerFuncs = map[string]string{
	"interp.predecode_pct": "specguard/internal/interp.Predecode",
	"trace.capture_pct":    "specguard/internal/trace.Capture",
	"core.optimize_pct":    "specguard/internal/core.Optimize",
	"pipeline.single_pct":  singleRun,
	"pipeline.batch_pct":   batchRun,
}

// stageFuncs buckets timing-core functions by pipeline stage. A sample
// belongs to the stage of the innermost listed function on its stack;
// a timing-core sample under none of them (cycle-loop glue, end-of-cycle
// bookkeeping) is "other".
var stageFuncs = map[string]string{
	pipelinePkg + "(*Pipeline).decodeFetch":       "fetch",
	pipelinePkg + "(*Pipeline).batchPredict":      "fetch",
	pipelinePkg + "(*Pipeline).stageDispatch":     "dispatch",
	pipelinePkg + "(*Pipeline).batchDispatch":     "dispatch",
	pipelinePkg + "(*Pipeline).stageIssue":        "issue",
	pipelinePkg + "(*Pipeline).stageComplete":     "complete",
	pipelinePkg + "(*Pipeline).stageCommit":       "commit",
	pipelinePkg + "(*window).refill":              "window",
	"specguard/internal/trace.(*Reader).NextInto": "window",
	pipelinePkg + "(*Pipeline).fastForward":       "skip",
}

// stageNames orders the stage buckets, "other" last.
var stageNames = []string{"fetch", "dispatch", "issue", "complete", "commit", "window", "skip", "other"}

// profileLayers reads the traced run's CPU profile into m: each layer's
// share of all sampled CPU time, and each pipeline stage's share of the
// timing core's (stages plus "other" sum to 100). It returns the CPU
// time the batched timing core was sampled in.
func profileLayers(m layerMetrics, dir string) (batchCPU time.Duration, err error) {
	samples, err := readProfile(dir)
	if err != nil {
		return 0, err
	}
	var total, core time.Duration
	layer := map[string]time.Duration{}
	stage := map[string]time.Duration{}
	for _, s := range samples {
		total += s.cpu
		on := map[string]bool{}
		for _, fn := range s.stack {
			on[fn] = true
		}
		for name, fn := range layerFuncs {
			if on[fn] {
				layer[name] += s.cpu
			}
		}
		if !on[singleRun] && !on[batchRun] {
			continue
		}
		core += s.cpu
		st := "other"
		for _, fn := range s.stack {
			if b, ok := stageFuncs[fn]; ok {
				st = b
				break
			}
		}
		stage[st] += s.cpu
	}
	for name := range layerFuncs {
		m.set(name, 100*ratio(layer[name].Seconds(), total.Seconds()))
	}
	for _, st := range stageNames {
		m.set("pipeline.stage."+st+"_pct", 100*ratio(stage[st].Seconds(), core.Seconds()))
	}
	return layer["pipeline.batch_pct"], nil
}
