package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"time"

	"specguard/internal/bench"
	"specguard/internal/machine"
	"specguard/internal/serve"
)

// serve-mixed traffic. These constants are the workload's definition;
// BENCHMARK.json's description of serve-mixed repeats them.
const (
	// nominalRate is R in requests per second, frozen once calibrated.
	nominalRate = 20.0
	// Mix weights (percent): store-hit runs, fresh runs, full-table sweeps.
	mixHit, mixFresh, mixSweep = 60, 35, 5
	// Latency limits a request must meet to count toward its SLO.
	runLimit   = 500 * time.Millisecond
	sweepLimit = 3 * time.Second
	// clientConns bounds the client's connections. nproc connections
	// would queue store hits behind simulations inside the client, so
	// the tail would be the client's; 16 keeps it the server's while
	// still bounding sockets.
	clientConns = 16
	// primedFresh is how many machine-override keys set-up completes,
	// next to the 12 default table cells, to form the store-hit pool.
	primedFresh = 12
	// checkedFresh is how many fresh keys are re-simulated directly.
	checkedFresh = 8
	// capacityRounds bounds the rounds of the closed-loop capacity blocks
	// (about 0.45 s each on a 2-vCPU VM, so a run uses about 30).
	capacityRounds = 80
)

// Capacity keys override only machine axes that cannot change a 2-bit
// or perfect predictor's timing: history_bits (read by gshare alone)
// and rename_regs at or above the active list's 32 entries, which bound
// how many renamed registers are in flight. So every capacity request
// simulates exactly its table cell, every round costs the same, and a
// round's time varies only with the host. The replies must equal the
// golden Stats. A history of at least 1 keeps them apart from the
// ladder's fresh keys, which leave it at 0.
var (
	capacityHistory = []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23, 24}
	capacityRename  = []int{32, 40, 48, 64}
)

// ladder is the open-loop rate ladder, ascending: each step's rate as a
// multiple of R, its share of the run's seconds, and the share of the
// closed-loop capacity block that follows it. In-flight requests drain
// between steps; step R carries most of the samples. A capacity block
// of capFirst also opens the run, so the capacity rounds sample the
// host's speed across the whole run rather than in one stretch of it.
var ladder = []struct{ mult, share, capAfter float64 }{{0.5, 0.06, 0.1}, {1, 0.42, 0.1}, {1.5, 0.06, 0}, {2, 0.06, 0.1}}

const capFirst = 0.1

// stepR is the ladder index whose latency is reported end to end.
const stepR = 1

// freshAxes are the machine-axis overrides a fresh request draws one of.
// The optimizer reads none of them (it reads the issue width, the
// mispredict penalty and the predictor size), so a fresh Proposed key
// still replays the optimized program's primed trace: fresh requests
// cost simulations and store writes, never architectural runs. The
// values sit near the R10000's, so a simulation costs about what its
// (workload, scheme) cell does whichever key the seed drew, and every
// seed sends about the same work.
var freshAxes = []struct {
	name   string
	values []int
}{
	{"active_list", []int{24, 40, 48, 64}},
	{"int_queue", []int{12, 20, 24, 32}},
	{"miss_penalty", []int{5, 7}},
	{"branch_stack", []int{3, 5, 6, 8}},
	{"rename_regs", []int{24, 40, 48, 64}},
}

// plannedReq is one scheduled request. Hit and fresh requests POST
// Body to /v1/run; a sweep GETs /v1/sweep.
type plannedReq struct {
	Due  time.Duration   `json:"due_ns"`
	Kind string          `json:"kind"`
	Body json.RawMessage `json:"body,omitempty"`
}

type plannedStep struct {
	Rate     float64       `json:"rate"`
	Dur      time.Duration `json:"dur_ns"`
	Reqs     []plannedReq  `json:"reqs"`
	CapAfter time.Duration `json:"cap_after_ns"` // the capacity block that follows the step
}

// servePlan is everything a serve-mixed run sends, drawn from the seed.
type servePlan struct {
	Primed   []json.RawMessage   `json:"primed"` // fresh-style keys completed in set-up
	CapFirst time.Duration       `json:"cap_first_ns"`
	Steps    []plannedStep       `json:"steps"`
	Capacity [][]json.RawMessage `json:"capacity"` // rounds of fresh keys, one per table cell
}

// deck deals 0..n-1 in a fresh seeded shuffle each round, so every
// round uses each item exactly once.
type deck struct {
	rng   *rand.Rand
	n     int
	order []int
}

func (d *deck) next() int {
	if len(d.order) == 0 {
		d.order = d.rng.Perm(d.n)
	}
	i := d.order[0]
	d.order = d.order[1:]
	return i
}

var tableSchemes = []string{"2-bitBP", "Proposed", "PerfectBP"}

// freshRequest draws a key for (workload, scheme) not in seen: a
// predictor size and one machine-axis override.
func freshRequest(rng *rand.Rand, seen map[string]bool, workload, scheme string) (json.RawMessage, error) {
	for {
		ax := freshAxes[rng.Intn(len(freshAxes))]
		req := serve.RunRequest{
			Workload:         workload,
			Scheme:           scheme,
			PredictorEntries: 64 << rng.Intn(8),
			Machine:          map[string]int{ax.name: ax.values[rng.Intn(len(ax.values))]},
		}
		body, err := json.Marshal(req)
		if err != nil {
			return nil, err
		}
		_, key, err := serve.NormalizeRequest(&req, machine.R10000())
		if err != nil {
			return nil, err
		}
		if !seen[key] {
			seen[key] = true
			return body, nil
		}
	}
}

// makePlan draws the whole serve-mixed schedule from the seed. Arrivals
// are evenly spaced at each step's rate; request kinds, store-hit keys
// and the (workload, scheme) of fresh keys are dealt from seeded decks,
// so every seed sends the same mix of work in a different order with
// different fresh keys. Same seed, same bytes.
func makePlan(seed int64, seconds time.Duration) (*servePlan, error) {
	rng := rand.New(rand.NewSource(seed))
	seen := map[string]bool{}
	plan := &servePlan{}
	type cell struct{ workload, scheme string }
	var cells []cell
	var hits []json.RawMessage
	for _, w := range bench.All() {
		for _, s := range tableSchemes {
			cells = append(cells, cell{w.Name, s})
			b, _ := json.Marshal(serve.RunRequest{Workload: w.Name, Scheme: s}) // strings only
			hits = append(hits, b)
		}
	}
	cellDeck := &deck{rng: rng, n: len(cells)}
	fresh := func() (json.RawMessage, error) {
		c := cells[cellDeck.next()]
		return freshRequest(rng, seen, c.workload, c.scheme)
	}
	for i := 0; i < primedFresh; i++ {
		body, err := fresh()
		if err != nil {
			return nil, err
		}
		plan.Primed = append(plan.Primed, body)
		hits = append(hits, body)
	}
	var kinds []string // one deck round holds the mix in 5% units
	for k, n := range map[string]int{"hit": mixHit / 5, "fresh": mixFresh / 5, "sweep": mixSweep / 5} {
		for i := 0; i < n; i++ {
			kinds = append(kinds, k)
		}
	}
	sort.Strings(kinds) // map order is random; the deck's must not be
	kindDeck, hitDeck := &deck{rng: rng, n: len(kinds)}, &deck{rng: rng, n: len(hits)}
	plan.CapFirst = time.Duration(capFirst * float64(seconds))
	for _, st := range ladder {
		step := plannedStep{Rate: st.mult * nominalRate, Dur: time.Duration(st.share * float64(seconds)),
			CapAfter: time.Duration(st.capAfter * float64(seconds))}
		gap := time.Duration(float64(time.Second) / step.Rate)
		for t := gap / 2; t < step.Dur; t += gap {
			q := plannedReq{Due: t, Kind: kinds[kindDeck.next()]}
			switch q.Kind {
			case "hit":
				q.Body = hits[hitDeck.next()]
			case "fresh":
				var err error
				if q.Body, err = fresh(); err != nil {
					return nil, err
				}
			}
			step.Reqs = append(step.Reqs, q)
		}
		plan.Steps = append(plan.Steps, step)
	}
	overrides := rng.Perm(len(capacityHistory) * len(capacityRename))[:capacityRounds]
	for _, k := range overrides {
		m := map[string]int{
			"history_bits": capacityHistory[k%len(capacityHistory)],
			"rename_regs":  capacityRename[k/len(capacityHistory)],
		}
		round := make([]json.RawMessage, len(cells))
		for j, c := range cells {
			req := serve.RunRequest{Workload: c.workload, Scheme: c.scheme, Machine: m}
			body, err := json.Marshal(req)
			if err != nil {
				return nil, err
			}
			_, key, err := serve.NormalizeRequest(&req, machine.R10000())
			if err != nil {
				return nil, err
			}
			if seen[key] {
				return nil, fmt.Errorf("capacity key %s drawn twice", key)
			}
			seen[key] = true
			round[j] = body
		}
		plan.Capacity = append(plan.Capacity, round)
	}
	return plan, nil
}

// runResponse is the part of a /v1/run response the benchmark reads.
type runResponse struct {
	Key      string          `json:"key"`
	Workload string          `json:"workload"`
	Scheme   string          `json:"scheme"`
	Source   string          `json:"source"`
	SimMS    float64         `json:"sim_ms"`
	Stats    json.RawMessage `json:"stats"`
}

// outcome is one sent request as the client saw it.
type outcome struct {
	step, seq int
	kind      string
	body      json.RawMessage
	due       time.Time
	late      time.Duration // send time − due time
	latency   time.Duration // completion − due time
	shed      bool
	err       error
	resp      runResponse // hit and fresh requests
}

// serveRig is the service under test, its HTTP server and its client.
type serveRig struct {
	svc      *serve.Service
	srv      *http.Server
	base     string
	client   *http.Client
	storeDir string
	handler  *handlerLog // traced runs only
}

// handlerLog records each request's handler interval, keyed by the
// benchmark's sequence header, and the time its own bookkeeping took.
type handlerLog struct {
	mu       sync.Mutex
	start    map[int]time.Time
	dur      map[int]time.Duration
	overhead time.Duration
}

const seqHeader = "X-Bench-Seq"

func (l *handlerLog) wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		t0 := time.Now()
		seq, err := strconv.Atoi(r.Header.Get(seqHeader))
		t1 := time.Now()
		h.ServeHTTP(w, r)
		t2 := time.Now()
		if err != nil {
			return
		}
		l.mu.Lock()
		l.start[seq], l.dur[seq] = t1, t2.Sub(t1)
		l.overhead += t1.Sub(t0) + time.Since(t2)
		l.mu.Unlock()
	})
}

// startRig boots the service over an on-disk store in a temporary
// directory under root/.bench_build and serves it on a loopback port.
func startRig(root string, traced bool) (*serveRig, error) {
	dir := filepath.Join(root, ".bench_build")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	storeDir, err := os.MkdirTemp(dir, "serve-store-")
	if err != nil {
		return nil, err
	}
	rig := &serveRig{storeDir: storeDir}
	store, err := serve.OpenStore(storeDir)
	if err != nil {
		os.RemoveAll(storeDir)
		return nil, err
	}
	rig.svc, err = serve.NewService(serve.Config{Runner: bench.NewRunner(), Store: store, Workers: runtime.NumCPU()})
	if err != nil {
		os.RemoveAll(storeDir)
		return nil, err
	}
	h := rig.svc.Handler()
	if traced {
		rig.handler = &handlerLog{start: map[int]time.Time{}, dur: map[int]time.Duration{}}
		h = rig.handler.wrap(h)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		rig.svc.Drain(context.Background())
		os.RemoveAll(storeDir)
		return nil, err
	}
	rig.srv = &http.Server{Handler: h}
	go rig.srv.Serve(ln) // returns ErrServerClosed once stop shuts it down
	rig.svc.MarkReady()
	rig.base = "http://" + ln.Addr().String()
	rig.client = &http.Client{Transport: &http.Transport{MaxConnsPerHost: clientConns, MaxIdleConnsPerHost: clientConns}}
	return rig, nil
}

// stop shuts the server and the service down and removes the store.
// Shutdown returns once every handler has returned.
func (rig *serveRig) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	rig.client.CloseIdleConnections()
	err := rig.srv.Shutdown(ctx)
	if derr := rig.svc.Drain(ctx); err == nil {
		err = derr
	}
	if rerr := os.RemoveAll(rig.storeDir); err == nil {
		err = rerr
	}
	return err
}

// post sends one /v1/run request and decodes its response.
func (rig *serveRig) post(body json.RawMessage, seq int) (runResponse, bool, error) {
	var rr runResponse
	req, err := http.NewRequest(http.MethodPost, rig.base+"/v1/run", bytes.NewReader(body))
	if err != nil {
		return rr, false, err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(seqHeader, strconv.Itoa(seq))
	resp, err := rig.client.Do(req)
	if err != nil {
		return rr, false, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return rr, false, err
	}
	if resp.StatusCode == http.StatusTooManyRequests {
		return rr, true, fmt.Errorf("run: shed (429)")
	}
	if resp.StatusCode != http.StatusOK {
		return rr, false, fmt.Errorf("run: status %d: %s", resp.StatusCode, bytes.TrimSpace(data))
	}
	return rr, false, json.Unmarshal(data, &rr)
}

// sweep sends one /v1/sweep request and checks every streamed cell
// against the golden table.
func (rig *serveRig) sweep(seq int, golden map[string][]byte) ([]runResponse, bool, error) {
	req, err := http.NewRequest(http.MethodGet, rig.base+"/v1/sweep", nil)
	if err != nil {
		return nil, false, err
	}
	req.Header.Set(seqHeader, strconv.Itoa(seq))
	resp, err := rig.client.Do(req)
	if err != nil {
		return nil, false, err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusTooManyRequests {
		io.Copy(io.Discard, resp.Body)
		return nil, true, fmt.Errorf("sweep: shed (429)")
	}
	if resp.StatusCode != http.StatusOK {
		return nil, false, fmt.Errorf("sweep: status %d", resp.StatusCode)
	}
	var cells []runResponse
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 4<<20)
	for sc.Scan() {
		var ev struct {
			Event  string       `json:"event"`
			Error  string       `json:"error"`
			Result *runResponse `json:"result"`
		}
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			return nil, false, fmt.Errorf("sweep: %w", err)
		}
		if ev.Event != serve.StageResult || ev.Result == nil {
			return nil, false, fmt.Errorf("sweep: %s event: %s", ev.Event, ev.Error)
		}
		if want := golden[ev.Result.Workload+"/"+ev.Result.Scheme]; !bytes.Equal(compact(ev.Result.Stats), want) {
			return nil, false, fmt.Errorf("sweep: %s/%s Stats differ from golden_stats.json", ev.Result.Workload, ev.Result.Scheme)
		}
		cells = append(cells, *ev.Result)
	}
	if err := sc.Err(); err != nil {
		return nil, false, fmt.Errorf("sweep: %w", err)
	}
	if len(cells) != len(golden) {
		return nil, false, fmt.Errorf("sweep: %d cells, want %d", len(cells), len(golden))
	}
	return cells, false, nil
}

// simStats reads the Stats fields of a response the benchmark totals.
func simStats(stats json.RawMessage) (committed, cycles int64) {
	var s struct{ Committed, Cycles int64 }
	json.Unmarshal(stats, &s) // a malformed body reads 0 and fails the Stats check instead
	return s.Committed, s.Cycles
}

// goldenByCell keys the golden table cells by "workload/scheme".
func goldenByCell(root string) (map[string][]byte, error) {
	golden, err := goldenStats(root)
	if err != nil {
		return nil, err
	}
	out := map[string][]byte{}
	i := 0
	for _, w := range bench.All() {
		for _, s := range tableSchemes {
			out[w.Name+"/"+s] = golden[i]
			i++
		}
	}
	return out, nil
}

// serveMixed measures the service under open-loop traffic. Set-up boots
// it over an on-disk store and primes it with one sweep, which captures
// the eight (workload, program) traces and stores the 12 table cells,
// and with the primed fresh-style keys; the ladder then sends the
// seed's schedule, with closed-loop capacity blocks between its steps.
func serveMixed(env *runEnv) (*result, error) {
	seconds := env.seconds
	if env.quick {
		seconds = 3 * time.Second
	}
	plan, err := makePlan(env.seed, seconds)
	if err != nil {
		return nil, err
	}
	golden, err := goldenByCell(env.root)
	if err != nil {
		return nil, err
	}
	rig, err := startRig(env.root, env.trace)
	if err != nil {
		return nil, err
	}
	res, err := serveRun(env, rig, plan, golden)
	if serr := rig.stop(); err == nil && serr != nil {
		err = fmt.Errorf("stopping the service: %w", serr)
	}
	return res, err
}

// serveRun primes the service, sends the ladder and the capacity
// blocks, and checks and measures what came back.
func serveRun(env *runEnv, rig *serveRig, plan *servePlan, golden map[string][]byte) (*result, error) {
	first := map[string][]byte{} // key → Stats of its first response
	cells, _, err := rig.sweep(-1, golden)
	if err != nil {
		return nil, fmt.Errorf("priming sweep: %w", err)
	}
	for _, c := range cells {
		first[c.Key] = compact(c.Stats)
	}
	for _, body := range plan.Primed {
		rr, _, err := rig.post(body, -1)
		if err != nil {
			return nil, fmt.Errorf("priming %s: %w", body, err)
		}
		first[rr.Key] = compact(rr.Stats)
	}
	res := &result{}
	if !env.setupDone() {
		return res, nil
	}

	stopProfile := func() error { return nil }
	if env.trace {
		if stopProfile, err = cpuProfile(env.traceDir); err != nil {
			return nil, err
		}
	}
	// An untraced run samples the host's speed after every capacity round
	// and every ladder step, outside their measurements.
	var host *hostRef
	if !env.trace {
		host = &hostRef{}
	}
	stopDepth := sampleQueueDepth(rig.svc)
	var outs, capOuts []*outcome
	var drains []time.Duration
	var rounds []opSample
	seq, nextRound := 0, 0
	capacity := func(dur time.Duration) {
		o, r := runCapacity(rig, plan, dur, &nextRound, &seq, golden, host)
		capOuts, rounds = append(capOuts, o...), append(rounds, r...)
	}
	// The ladder's own totals leave out the capacity blocks between its
	// steps.
	var counters serveCounters
	var cpu, elapsed time.Duration
	var alloc uint64
	capacity(plan.CapFirst)
	for si, st := range plan.Steps {
		c0, a0, cpu0, t0 := snapshot(rig.svc), totalAlloc(), cpuTime(), time.Now()
		stepOuts, drain := runStep(rig, si, st, &seq, golden)
		cpu, alloc, elapsed = cpu+cpuTime()-cpu0, alloc+totalAlloc()-a0, elapsed+time.Since(t0)
		counters = counters.add(snapshot(rig.svc).sub(c0))
		outs = append(outs, stepOuts...)
		drains = append(drains, drain)
		host.sample(1)
		capacity(st.CapAfter)
	}
	maxDepth := stopDepth()
	if err := stopProfile(); err != nil {
		return nil, err
	}

	all := append(append([]*outcome(nil), outs...), capOuts...)
	for _, o := range all {
		if o.err == nil && o.kind == "hit" && !bytes.Equal(compact(o.resp.Stats), first[o.resp.Key]) {
			o.err = fmt.Errorf("hit %s: Stats differ from the key's first response", o.resp.Key)
		}
		res.check(o.err)
	}
	checkFresh(env.seed, all, res)

	// The end-to-end latency is the median store hit's. The median of all
	// kinds falls at about the 77th percentile of the fast requests,
	// where hits start waiting behind two simulating workers; on a slowed
	// host it jumped between modes (quartile spread 0.36 over ten seeds,
	// against 0.09 for hits). All kinds' mean and tail are in extra.
	var latR, hitR []float64
	var simInstrs int64
	var simSecs float64
	for _, o := range outs {
		if o.step == stepR {
			latR = append(latR, ms(o.latency))
			if o.kind == "hit" {
				hitR = append(hitR, ms(o.latency))
			}
		}
		if o.err == nil && o.resp.Source == "sim" {
			n, _ := simStats(o.resp.Stats)
			simInstrs += n
			simSecs += o.resp.SimMS / 1e3
		}
	}
	// The service's simulation speed and CPU cost come from the capacity
	// rounds, as a closed loop's do: every round simulates the same 12
	// table cells. The ladder's own figures, kept in extra, varied across
	// seeds with the host even in quiet stretches, when the closed loops
	// held steady.
	var rate, cpuReq []float64
	for _, s := range rounds {
		rate = append(rate, ratio(float64(s.instrs), s.wall.Seconds())/1e6)
		cpuReq = append(cpuReq, ms(s.cpu)/float64(len(plan.Capacity[0])))
	}
	n := float64(len(outs))
	steps := stepTable(plan, outs, drains)
	res.extra = map[string]any{
		"steps":                   steps,
		"lat_mean_ms":             withMean(latR, "ms"),
		"lat_tail_ms":             tailOf(latR, "ms"),
		"slo_miss_ratio":          steps[stepR].SLOMissRatio,
		"max_rate_rps":            maxRate(steps),
		"by_kind_ms":              latencyByKind(outs),
		"ladder_sim_minstr_per_s": ratio(float64(simInstrs), simSecs) / 1e6,
		"ladder_cpu_ms_per_req":   ratio(ms(cpu), n),
		"capacity_round_ms":       wallMS(rounds),
	}
	if !env.trace {
		wf, cf := host.factors()
		res.metrics = map[string]Metric{
			"latency_ms":       scaled(summarize(hitR, "ms"), wf),
			"sim_minstr_per_s": scaled(summarize(rate, "Minstr/s"), 1/wf),
			"cpu_ms_per_op":    scaled(summarize(cpuReq, "ms"), cf),
			"alloc_mb_per_op":  single(ratio(float64(alloc)/1e6, n), "MB"),
		}
		res.host, res.extra["host_ref"] = host, host.report()
		return res, nil
	}

	// Shutdown waits for every handler to return, so the handler log is
	// complete once it does.
	if err := rig.srv.Shutdown(context.Background()); err != nil {
		return nil, err
	}
	m := newLayerMetrics()
	if _, err := profileLayers(m, env.traceDir); err != nil {
		return nil, err
	}
	spans, serveMS := serveLayers(m, rig, outs, counters)
	traces, err := workloadTraces(true)
	if err != nil {
		return nil, err
	}
	if err := replayTrace(m, traces); err != nil {
		return nil, err
	}
	m.set("pipeline.single_minstr_per_s", ratio(float64(simInstrs), simSecs)/1e6)
	m.set("serve.queue_depth_max", float64(maxDepth))
	m.set("bench.par_efficiency", ratio(cpu.Seconds(), elapsed.Seconds()*float64(runtime.GOMAXPROCS(0))))
	res.metrics = m
	res.extra["serve_ms"] = serveMS
	return res, writeChromeTrace(filepath.Join(env.traceDir, "trace.json"), spans)
}

// kindLatency is one request kind's latency at step R.
type kindLatency struct {
	P50MS float64 `json:"p50_ms"`
	Tail  Tail    `json:"tail_ms"`
}

func latencyByKind(outs []*outcome) map[string]kindLatency {
	lat := map[string][]float64{}
	for _, o := range outs {
		if o.step == stepR {
			lat[o.kind] = append(lat[o.kind], ms(o.latency))
		}
	}
	out := map[string]kindLatency{}
	for k, xs := range lat {
		out[k] = kindLatency{percentile(xs, 0.5), tailOf(xs, "ms")}
	}
	return out
}

// runStep sends one ladder step's requests at their due times, each on
// its own goroutine, then waits for the stragglers. It returns the
// outcomes and how long the backlog took to drain after the step's end.
func runStep(rig *serveRig, si int, st plannedStep, seq *int, golden map[string][]byte) ([]*outcome, time.Duration) {
	outs := make([]*outcome, len(st.Reqs))
	var wg sync.WaitGroup
	start := time.Now()
	for i, q := range st.Reqs {
		o := &outcome{step: si, seq: *seq, kind: q.Kind, body: q.Body, due: start.Add(q.Due)}
		*seq++
		outs[i] = o
		time.Sleep(time.Until(o.due))
		o.late = time.Since(o.due)
		wg.Add(1)
		go func() {
			defer wg.Done()
			if o.kind == "sweep" {
				_, o.shed, o.err = rig.sweep(o.seq, golden)
			} else {
				o.resp, o.shed, o.err = rig.post(o.body, o.seq)
			}
			o.latency = time.Since(o.due)
		}()
	}
	end := start.Add(st.Dur)
	time.Sleep(time.Until(end))
	wg.Wait()
	return outs, max(time.Since(end), 0)
}

// runCapacity is one closed-loop capacity block: rounds of fresh keys,
// one per table cell, each round sent over as many concurrent clients
// as the service has workers and the next sent once the last reply is
// in. It runs the plan's unused rounds, from *next on, until dur is
// spent, at least one unless dur is 0, samples the host's speed after
// each, and returns the outcomes and each round's measurements.
func runCapacity(rig *serveRig, plan *servePlan, dur time.Duration, next, seq *int, golden map[string][]byte, host *hostRef) ([]*outcome, []opSample) {
	var outs []*outcome
	var rounds []opSample
	start := time.Now()
	for dur > 0 && *next < len(plan.Capacity) {
		if len(rounds) > 0 && time.Since(start) >= dur {
			break
		}
		keys := plan.Capacity[*next]
		*next++
		round := make([]*outcome, len(keys))
		for i, body := range keys {
			round[i] = &outcome{step: -1, seq: *seq, kind: "fresh", body: body}
			*seq++
		}
		s, _ := timeOp(func() (int64, error) {
			sendAll(rig, round, runtime.NumCPU())
			return 0, nil
		})
		for _, o := range round {
			switch {
			case o.err != nil:
			case o.resp.Source != "sim":
				o.err = fmt.Errorf("capacity %s: served from %q, want a simulation", o.resp.Key, o.resp.Source)
			case !bytes.Equal(compact(o.resp.Stats), golden[o.resp.Workload+"/"+o.resp.Scheme]):
				o.err = fmt.Errorf("capacity %s: Stats differ from golden_stats.json", o.resp.Key)
			}
			if o.err == nil {
				n, _ := simStats(o.resp.Stats)
				s.instrs += n
			}
		}
		outs = append(outs, round...)
		rounds = append(rounds, s)
		host.sample(1)
	}
	return outs, rounds
}

// sendAll posts every outcome's body over clients concurrent clients and
// returns once all replies are in; each request is timed from when its
// client sent it.
func sendAll(rig *serveRig, outs []*outcome, clients int) {
	next := make(chan *outcome)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for o := range next {
				o.due = time.Now()
				o.resp, o.shed, o.err = rig.post(o.body, o.seq)
				o.latency = time.Since(o.due)
			}
		}()
	}
	for _, o := range outs {
		next <- o
	}
	close(next)
	wg.Wait()
}

// checkFresh re-simulates seed-sampled fresh keys directly through
// Runner.RunSpec; each must match the service's response byte for byte.
func checkFresh(seed int64, outs []*outcome, res *result) {
	var fresh []*outcome
	for _, o := range outs {
		if o.kind == "fresh" && o.err == nil {
			fresh = append(fresh, o)
		}
	}
	rng := rand.New(rand.NewSource(seed ^ 0xf2e5))
	r := bench.NewRunner()
	for k := 0; k < checkedFresh && len(fresh) > 0; k++ {
		o := fresh[rng.Intn(len(fresh))]
		var req serve.RunRequest
		err := json.Unmarshal(o.body, &req)
		if err == nil {
			var spec bench.Spec
			if spec, _, err = serve.NormalizeRequest(&req, machine.R10000()); err == nil {
				var direct bench.Result
				if direct, err = r.RunSpec(context.Background(), spec); err == nil && !bytes.Equal(statsJSON(direct.Stats), compact(o.resp.Stats)) {
					err = fmt.Errorf("fresh %s: served Stats differ from a direct RunSpec", o.body)
				}
			}
		}
		res.check(err)
	}
}

// StepReport summarizes one ladder step.
type StepReport struct {
	RateRPS      float64 `json:"rate_rps"`
	Sent         int     `json:"sent"`
	Failed       int     `json:"failed"`
	Shed         int     `json:"shed"`
	P50MS        float64 `json:"p50_ms"`
	P95MS        float64 `json:"p95_ms"`
	Tail         Tail    `json:"tail_ms"`
	SLOMissRatio float64 `json:"slo_miss_ratio"`
	DrainMS      float64 `json:"drain_ms"`
}

// stepTable summarizes each ladder step. A request that failed, was
// shed or exceeded its kind's latency limit misses the SLO.
func stepTable(plan *servePlan, outs []*outcome, drains []time.Duration) []StepReport {
	steps := make([]StepReport, len(plan.Steps))
	lat := make([][]float64, len(plan.Steps))
	misses := make([]int, len(plan.Steps))
	for _, o := range outs {
		s := &steps[o.step]
		s.Sent++
		limit := runLimit
		if o.kind == "sweep" {
			limit = sweepLimit
		}
		switch {
		case o.shed:
			s.Shed++
			misses[o.step]++
		case o.err != nil:
			s.Failed++
			misses[o.step]++
		case o.latency > limit:
			misses[o.step]++
		}
		lat[o.step] = append(lat[o.step], ms(o.latency))
	}
	for i := range steps {
		s := &steps[i]
		s.RateRPS = plan.Steps[i].Rate
		s.SLOMissRatio = ratio(float64(misses[i]), float64(s.Sent))
		s.P50MS, s.P95MS, s.Tail = percentile(lat[i], 0.5), percentile(lat[i], 0.95), tailOf(lat[i], "ms")
		s.DrainMS = ms(drains[i])
	}
	return steps
}

// maxRate is the highest ladder rate at which at least 95% of requests
// met their latency limit, none was shed or failed, and the backlog
// drained within a second of the step's end.
func maxRate(steps []StepReport) float64 {
	best := 0.0
	for _, s := range steps {
		if s.Sent > 0 && s.SLOMissRatio <= 0.05 && s.Shed == 0 && s.Failed == 0 && s.DrainMS < 1000 {
			best = s.RateRPS
		}
	}
	return best
}

// serveCounters is a snapshot of the service's and its Runner's
// counters.
type serveCounters struct{ requests, hits, coalesced, rejected, arch, drains, lanes, skipped int64 }

func snapshot(svc *serve.Service) serveCounters {
	m, r := svc.Metrics(), svc.Runner()
	return serveCounters{m.Requests.Load(), m.StoreHits.Load(), m.CoalescedHits.Load(), m.Rejected.Load(),
		r.ArchRuns(), r.TraceDrains(), r.SimLanes(), r.SkippedCycles()}
}

func (c serveCounters) sub(o serveCounters) serveCounters {
	return serveCounters{c.requests - o.requests, c.hits - o.hits, c.coalesced - o.coalesced, c.rejected - o.rejected,
		c.arch - o.arch, c.drains - o.drains, c.lanes - o.lanes, c.skipped - o.skipped}
}

func (c serveCounters) add(o serveCounters) serveCounters {
	return serveCounters{c.requests + o.requests, c.hits + o.hits, c.coalesced + o.coalesced, c.rejected + o.rejected,
		c.arch + o.arch, c.drains + o.drains, c.lanes + o.lanes, c.skipped + o.skipped}
}

// sampleQueueDepth samples the service's queue depth every 100 ms
// until the returned stop function is called; stop returns the maximum.
func sampleQueueDepth(svc *serve.Service) (stop func() int64) {
	var deepest int64
	done := make(chan struct{})
	exited := make(chan struct{})
	go func() {
		defer close(exited)
		t := time.NewTicker(100 * time.Millisecond)
		defer t.Stop()
		for {
			deepest = max(deepest, svc.Metrics().QueueDepth.Load())
			select {
			case <-done:
				return
			case <-t.C:
			}
		}
	}()
	return func() int64 {
		close(done)
		<-exited
		return deepest
	}
}

// serveLayers fills the serve and load layer metrics of a traced run
// from the counters' deltas over the ladder, dc, and the handler log,
// and returns the request spans (a client "request" span from due time
// to completion, with the server's "handler" span inside it) and the
// raw step-R latencies the shares derive from, in ms.
func serveLayers(m layerMetrics, rig *serveRig, outs []*outcome, dc serveCounters) ([]span, map[string]float64) {
	var latency, handler, sim, simHandler, late []float64
	var spans []span
	var handled, requested time.Duration
	var proposed, cycles int64
	t0 := outs[0].due
	rig.handler.mu.Lock()
	defer rig.handler.mu.Unlock()
	for _, o := range outs {
		if o.err == nil && o.resp.Source == "sim" {
			_, c := simStats(o.resp.Stats)
			cycles += c
			if o.resp.Scheme == "Proposed" {
				proposed++
			}
		}
		hd, ok := rig.handler.dur[o.seq]
		if !ok {
			continue
		}
		tid := o.seq%clientConns + 1
		spans = append(spans,
			span{Name: "request:" + o.kind, Start: o.due.Sub(t0), Dur: o.latency, Parent: -1, ID: o.seq, TID: tid},
			span{Name: "handler", Start: rig.handler.start[o.seq].Sub(t0), Dur: hd, Parent: len(spans), ID: o.seq, TID: tid})
		if o.step != stepR {
			continue
		}
		handled += hd
		requested += o.latency
		latency = append(latency, ms(o.latency))
		handler = append(handler, ms(hd))
		late = append(late, ms(o.late))
		if o.err == nil && o.resp.Source == "sim" {
			sim = append(sim, o.resp.SimMS)
			simHandler = append(simHandler, ms(hd))
		}
	}
	reqs := float64(len(outs))
	raw := map[string]float64{
		"latency_tail":     tailOf(latency, "ms").Value,
		"handler_p50":      percentile(handler, 0.5),
		"handler_tail":     tailOf(handler, "ms").Value,
		"sim_p50":          percentile(sim, 0.5),
		"sim_tail":         tailOf(sim, "ms").Value,
		"sim_handler_tail": tailOf(simHandler, "ms").Value,
		"late_tail":        tailOf(late, "ms").Value,
	}
	m.set("trace.captures", float64(dc.arch)/reqs)
	m.set("core.optimize_calls", float64(proposed)/reqs)
	m.set("pipeline.skip_rate", ratio(float64(dc.skipped), float64(cycles)))
	m.set("bench.trace_drains", float64(dc.drains)/reqs)
	m.set("bench.lanes_per_drain", ratio(float64(dc.lanes), float64(dc.drains)))
	m.set("serve.store_hit_ratio", ratio(float64(dc.hits), float64(dc.requests)))
	m.set("serve.coalesced_ratio", ratio(float64(dc.coalesced), float64(dc.requests)))
	m.set("serve.shed", float64(dc.rejected))
	m.set("serve.handler_tail_share", ratio(raw["handler_tail"], raw["latency_tail"]))
	m.set("serve.sim_tail_share", ratio(raw["sim_tail"], raw["sim_handler_tail"]))
	m.set("load.late_tail_share", ratio(raw["late_tail"], raw["latency_tail"]))
	m.set("tracing.overhead_pct", 100*ratio(rig.handler.overhead.Seconds(), handled.Seconds()))
	m.set("tracing.reconcile_pct", 100*ratio(handled.Seconds(), requested.Seconds()))
	return spans, raw
}
