// Command benchmark measures the simulator and its service end to end
// under one fixed protocol. Each workload runs in its own child process
// at GOMAXPROCS = nproc, checks its outputs, and reports every metric
// with its quartiles and sample count: a median, its timings scaled to a
// nominal host speed (hostref.go).
//
// From the repository root:
//
//	bash benchmark/run.sh                          all workloads, one JSON report
//	bash benchmark/run.sh -workload sweep-grid     one workload; the last line is a summary
//	bash benchmark/run.sh -trace 1                 traced run: per-layer metrics, trace.json, cpu.pprof
//	bash benchmark/run.sh -diff BASE_DIR NEW_DIR   compare saved reports
//
// See README.md for the workloads, the metrics and the noise behind
// each bound.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// workloads maps each workload name to its child-process body, in
// report order.
var workloads = []struct {
	name string
	run  func(*runEnv) (*result, error)
}{
	{"paper-cold", paperCold},
	{"sweep-grid", sweepGrid},
	{"serve-mixed", serveMixed},
}

// metricDef names a reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd lists the metrics an untraced run reports on every workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"latency_ms", "ms"},
	{"sim_minstr_per_s", "Minstr/s"},
	{"cpu_ms_per_op", "ms"},
	{"alloc_mb_per_op", "MB"},
	{"rss_peak_mb", "MB"},
}

// perLayer lists the traced run's metrics. Every workload reports all
// of them, so a layer's time is a share of the workload's own time and
// a layer the workload does not exercise reads 0.
var perLayer = []metricDef{
	{"interp.predecode_pct", "%"},
	{"trace.capture_pct", "%"},
	{"trace.captures", "count"},
	{"trace.bytes_per_kevent", "B"},
	{"trace.replay_minstr_per_s", "Minstr/s"},
	{"core.optimize_pct", "%"},
	{"core.optimize_calls", "count"},
	{"pipeline.single_pct", "%"},
	{"pipeline.single_minstr_per_s", "Minstr/s"},
	{"pipeline.batch_pct", "%"},
	{"pipeline.lane_minstr_per_s", "Minstr/s"},
	{"pipeline.skip_rate", "ratio"},
	{"pipeline.stage.fetch_pct", "%"},
	{"pipeline.stage.dispatch_pct", "%"},
	{"pipeline.stage.issue_pct", "%"},
	{"pipeline.stage.complete_pct", "%"},
	{"pipeline.stage.commit_pct", "%"},
	{"pipeline.stage.window_pct", "%"},
	{"pipeline.stage.skip_pct", "%"},
	{"pipeline.stage.other_pct", "%"},
	{"bench.trace_drains", "count"},
	{"bench.lanes_per_drain", "ratio"},
	{"bench.par_efficiency", "ratio"},
	{"serve.store_hit_ratio", "ratio"},
	{"serve.coalesced_ratio", "ratio"},
	{"serve.shed", "count"},
	{"serve.queue_depth_max", "count"},
	{"serve.handler_tail_share", "ratio"},
	{"serve.sim_tail_share", "ratio"},
	{"load.late_tail_share", "ratio"},
	{"tracing.overhead_pct", "%"},
	{"tracing.reconcile_pct", "%"},
}

// layerMetrics is a traced run's per-layer block, every metric at 0
// until set.
type layerMetrics map[string]Metric

func newLayerMetrics() layerMetrics {
	m := make(layerMetrics, len(perLayer))
	for _, d := range perLayer {
		m[d.name] = single(0, d.unit)
	}
	return m
}

// set records one exactly measured value under a per-layer name.
func (m layerMetrics) set(name string, v float64) {
	m[name] = single(v, m[name].Unit)
}

// runEnv is what a workload's child process knows about its run.
type runEnv struct {
	root      string
	seed      int64
	seconds   time.Duration
	quick     bool
	trace     bool
	traceDir  string
	setupOnly bool
	spawned   time.Time // when the parent started this process
	setup     time.Duration
	start     time.Time // first timed operation
}

// setupDone marks the end of set-up: the next operation is timed. It
// reports whether the process should go on to measure; a set-up probe
// stops here.
func (e *runEnv) setupDone() bool {
	e.setup = time.Since(e.spawned)
	e.start = time.Now()
	return !e.setupOnly
}

// more reports whether a closed loop that has completed done timed
// operations should run another: until it has done least of them, then
// until the run's seconds are spent (one operation in quick mode).
func (e *runEnv) more(done, least int) bool {
	if e.quick {
		return done < 1
	}
	return done < least || time.Since(e.start) < e.seconds
}

// result is a workload's outcome inside its child process.
type result struct {
	attempted, failed int
	errors            []string
	metrics           map[string]Metric
	extra             map[string]any
	host              *hostRef // an untraced run's host-speed samples
}

// check counts one checked operation, failed when err is not nil, and
// keeps the first few errors.
func (r *result) check(err error) {
	r.attempted++
	if err == nil {
		return
	}
	r.failed++
	if len(r.errors) < 5 {
		r.errors = append(r.errors, err.Error())
	}
}

// childOut is what a child process prints as its last stdout line.
type childOut struct {
	SetupS    float64           `json:"setup_s"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Errors    []string          `json:"errors,omitempty"`
	Metrics   map[string]Metric `json:"metrics"`
	Extra     map[string]any    `json:"extra,omitempty"`
	// WallFactor scales the set-up times to the nominal host speed
	// (hostref.go); 0 when the process took no reference samples.
	WallFactor float64 `json:"wall_factor,omitempty"`
}

// WorkloadReport is one workload's section of the report.
type WorkloadReport struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	FailRatio float64           `json:"fail_ratio"`
	Errors    []string          `json:"errors,omitempty"`
	Metrics   map[string]Metric `json:"metrics"`
	Extra     map[string]any    `json:"extra,omitempty"`
}

// Host records where a report was measured.
type Host struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	Commit     string `json:"commit"`
}

// Report is the benchmark's JSON report; -diff reads saved copies and
// compares only reports whose run settings match.
type Report struct {
	Host      Host                       `json:"host"`
	Seed      int64                      `json:"seed"`
	Seconds   int                        `json:"seconds"`
	Trace     bool                       `json:"trace"`
	Quick     bool                       `json:"quick"`
	Workloads map[string]*WorkloadReport `json:"workloads"`
}

// summaryLine is the one-line result a single-workload run prints last.
type summaryLine struct {
	Correct   bool                      `json:"correct"`
	Attempted int                       `json:"attempted"`
	Failed    int                       `json:"failed"`
	Metrics   map[string]map[string]any `json:"metrics"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run parses args and runs the selected mode, returning the exit code:
// 0 when every check passed, 1 when a check failed (the report is still
// printed), 2 when the benchmark could not run.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "run one workload (default: all, each in its own child process)")
	seed := fs.Int64("seed", 1, "workload seed")
	seconds := fs.Int("seconds", 0, "measured seconds per workload: BENCHMARK.json's run_seconds, the only value accepted")
	traced := fs.Int("trace", 0, "1 = traced run: per-layer metrics, trace.json and cpu.pprof")
	traceDir := fs.String("trace-dir", "", "where the traced run writes (default .bench_build/trace under -root)")
	root := fs.String("root", ".", "repository root")
	quick := fs.Bool("quick", false, "one operation per simulation workload and a short serve ladder (tests)")
	diff := fs.Bool("diff", false, "compare the reports in two directories: -diff BASE_DIR NEW_DIR")
	child := fs.String("child", "", "internal: run as a workload child process (setup or run)")
	spawned := fs.Int64("spawned", 0, "internal: parent's clock when it started this child, in Unix nanoseconds")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	// Every workload runs at GOMAXPROCS = nproc, whatever the
	// environment asks for, so reports from one host compare.
	runtime.GOMAXPROCS(runtime.NumCPU())
	if *diff {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "benchmark: -diff needs BASE_DIR and NEW_DIR")
			return 2
		}
		return runDiff(*root, fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	if fs.NArg() != 0 {
		fmt.Fprintf(stderr, "benchmark: unexpected arguments %q\n", fs.Args())
		return 2
	}
	if *traced != 0 && *traced != 1 {
		fmt.Fprintln(stderr, "benchmark: -trace takes 0 or 1")
		return 2
	}
	// The run length is BENCHMARK.json's; -seconds exists because the
	// benchmark's callers pass that value, and may not change it.
	spec, err := readSpec(*root)
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 2
	}
	if *seconds != 0 && *seconds != spec.RunSeconds {
		fmt.Fprintf(stderr, "benchmark: -seconds %d: the run length is BENCHMARK.json's run_seconds, %d\n", *seconds, spec.RunSeconds)
		return 2
	}
	if *traceDir == "" {
		*traceDir = filepath.Join(*root, ".bench_build", "trace")
	}
	env := &runEnv{root: *root, seed: *seed, seconds: time.Duration(spec.RunSeconds) * time.Second,
		quick: *quick, trace: *traced == 1, traceDir: *traceDir}
	var names []string
	for _, w := range workloads {
		if *workload == "" || *workload == w.name {
			names = append(names, w.name)
		}
	}
	if len(names) == 0 {
		fmt.Fprintf(stderr, "benchmark: unknown workload %q\n", *workload)
		return 2
	}
	if *child != "" {
		env.setupOnly = *child == "setup"
		env.spawned = time.Unix(0, *spawned)
		return runChild(env, names[0], stdout, stderr)
	}

	rep := &Report{Host: host(*root), Seed: *seed, Seconds: spec.RunSeconds, Trace: env.trace, Quick: env.quick,
		Workloads: map[string]*WorkloadReport{}}
	code := 0
	for _, name := range names {
		wr, err := runWorkload(env, name, args, stderr)
		if err != nil {
			fmt.Fprintf(stderr, "benchmark: %s: %v\n", name, err)
			return 2
		}
		rep.Workloads[name] = wr
		if !wr.Correct {
			fmt.Fprintf(stderr, "benchmark: %s: %d of %d checks failed: %s\n", name, wr.Failed, wr.Attempted, strings.Join(wr.Errors, "; "))
			code = 1
		}
	}
	if *workload == "" {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			return 2
		}
		return code
	}
	line, err := summarize1(rep.Workloads[names[0]], env.trace)
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 2
	}
	full, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 2
	}
	fmt.Fprintf(stdout, "%s\n%s\n", full, line)
	return code
}

// summarize1 renders the last line of a single-workload run: exactly
// the end-to-end metrics (or, traced, the per-layer ones) by value and
// unit.
func summarize1(wr *WorkloadReport, traced bool) ([]byte, error) {
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	line := summaryLine{Correct: wr.Correct, Attempted: wr.Attempted, Failed: wr.Failed, Metrics: map[string]map[string]any{}}
	for _, d := range defs {
		m, ok := wr.Metrics[d.name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.name)
		}
		line.Metrics[d.name] = map[string]any{"value": m.Value, "unit": m.Unit}
	}
	return json.Marshal(line)
}

// An untraced run makes at least minProbes extra cold starts, and more,
// up to maxProbes, while they have taken under probeBudget: a set-up of
// tens of milliseconds is mostly process-start noise and needs more
// samples than one of seconds.
const (
	minProbes   = 4
	maxProbes   = 16
	probeBudget = 2 * time.Second
)

// runWorkload measures one workload: set-up probes and one measured
// run, each a fresh child process, so set-up time is a median of cold
// starts and peak RSS is the measured process's own.
func runWorkload(env *runEnv, name string, args []string, stderr io.Writer) (*WorkloadReport, error) {
	if env.trace {
		if err := os.MkdirAll(filepath.Join(env.traceDir, name), 0o755); err != nil {
			return nil, err
		}
	}
	var setups []float64
	probing := 0.0
	for !env.trace && !env.quick && (len(setups) < minProbes || len(setups) < maxProbes && probing < probeBudget.Seconds()) {
		out, _, err := spawn(env, name, "setup", args, stderr)
		if err != nil {
			return nil, fmt.Errorf("set-up probe: %w", err)
		}
		setups = append(setups, out.SetupS)
		probing += out.SetupS
	}
	out, ru, err := spawn(env, name, "run", args, stderr)
	if err != nil {
		return nil, err
	}
	setups = append(setups, out.SetupS)
	wr := &WorkloadReport{Attempted: out.Attempted, Failed: out.Failed, Errors: out.Errors, Metrics: out.Metrics, Extra: out.Extra}
	if wr.Metrics == nil {
		wr.Metrics = map[string]Metric{}
	}
	if !env.trace {
		// The probes ran in the minute before the measuring process, so its
		// host-speed samples scale their set-up times too.
		wr.Metrics["setup_s"] = scaled(summarize(setups, "s"), out.WallFactor)
		wr.Metrics["rss_peak_mb"] = single(float64(ru.Maxrss)*1024/1e6, "MB")
	}
	wr.FailRatio = ratio(float64(wr.Failed), float64(wr.Attempted))
	wr.Correct = wr.Failed == 0 && wr.Attempted > 0
	return wr, nil
}

// childTimeout bounds one child process; a whole single-workload run
// stays inside three minutes.
const childTimeout = 100 * time.Second

// spawn runs this program as a child process for one workload and
// decodes the childOut it prints last.
func spawn(env *runEnv, name, role string, args []string, stderr io.Writer) (*childOut, *syscall.Rusage, error) {
	ctx, cancel := context.WithTimeout(context.Background(), childTimeout)
	defer cancel()
	exe, err := os.Executable()
	if err != nil {
		return nil, nil, err
	}
	cargs := append([]string{}, args...)
	cargs = append(cargs, "-workload", name, "-child", role, "-spawned", strconv.FormatInt(time.Now().UnixNano(), 10))
	if env.trace {
		cargs = append(cargs, "-trace-dir", filepath.Join(env.traceDir, name))
	}
	cmd := exec.CommandContext(ctx, exe, cargs...)
	cmd.Env = append(os.Environ(), childEnv+"=1")
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = stderr
	if err := cmd.Run(); err != nil {
		return nil, nil, fmt.Errorf("%s child: %w", role, err)
	}
	ru, _ := cmd.ProcessState.SysUsage().(*syscall.Rusage)
	if ru == nil {
		ru = &syscall.Rusage{}
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var co childOut
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &co); err != nil {
		return nil, nil, fmt.Errorf("%s child printed no result: %w", role, err)
	}
	return &co, ru, nil
}

// childEnv marks a child process, so a test binary re-executing itself
// runs the benchmark instead of its tests.
const childEnv = "SGBENCH_CHILD"

// runChild is a workload's child process: set up, measure, print a
// childOut. A failed check is reported in the output, not as an exit
// code; an error that stops the workload exits 2.
func runChild(env *runEnv, name string, stdout, stderr io.Writer) int {
	for _, w := range workloads {
		if w.name != name {
			continue
		}
		res, err := w.run(env)
		if err != nil {
			fmt.Fprintf(stderr, "benchmark: %s: %v\n", name, err)
			return 2
		}
		out := childOut{SetupS: env.setup.Seconds(), Attempted: res.attempted, Failed: res.failed,
			Errors: res.errors, Metrics: res.metrics, Extra: res.extra}
		if res.host != nil {
			out.WallFactor, _ = res.host.factors()
		}
		data, err := json.Marshal(out)
		if err != nil {
			fmt.Fprintf(stderr, "benchmark: %s: %v\n", name, err)
			return 2
		}
		fmt.Fprintf(stdout, "%s\n", data)
		return 0
	}
	return 2
}

// host describes the machine and the code measured. The commit is read
// only from a git checkout at root, so git never searches above it.
func host(root string) Host {
	h := Host{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version(), Commit: "unknown"}
	if _, err := os.Stat(filepath.Join(root, ".git")); err != nil {
		return h
	}
	if out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output(); err == nil {
		h.Commit = strings.TrimSpace(string(out))
	}
	return h
}
