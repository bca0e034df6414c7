// Package serve turns the experiment harness (internal/bench) into a
// long-lived concurrent service: sgserved accepts experiment requests
// over HTTP, executes them on a bounded worker pool with per-request
// timeouts and queue-depth backpressure, coalesces identical in-flight
// requests into one simulation, and persists completed results in a
// content-addressed on-disk store so repeated sweeps are served from
// disk without re-simulation.
//
// The coalescing identity is the same one the Runner's trace cache
// uses — (workload, program fingerprint, scheme, predictor config) —
// extended with the optimizer options that select the Proposed program
// variant. Three layers of dedup therefore cooperate, outermost first:
//
//	store     cross-restart   identical request already completed
//	coalesce  in-flight       identical request currently running
//	traces    per-process     distinct timing configs of one program
package serve

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"specguard/internal/bench"
	"specguard/internal/core"
	"specguard/internal/explore"
	"specguard/internal/machine"
	"specguard/internal/pipeline"
)

// RunRequest is one experiment request: workload × scheme × optimizer
// options × predictor configuration.
type RunRequest struct {
	// Workload names a registered kernel: compress, espresso, xlisp,
	// grep.
	Workload string `json:"workload"`
	// Scheme selects the paper's configuration: "2-bitBP" (aliases
	// 2bit, twobit), "Proposed", or "PerfectBP" (alias perfect).
	Scheme string `json:"scheme"`
	// PredictorEntries overrides the 2-bit predictor table size;
	// 0 means the machine model's size. Requests naming the default
	// explicitly and implicitly share one identity. Capped at
	// machine.MaxPredictorEntries — the table is allocated per lane, so
	// an unbounded size would let one request exhaust the heap.
	PredictorEntries int `json:"predictor_entries,omitempty"`
	// Machine overrides individual machine-model axes on the service's
	// base model (axis name → value; machine.AxisNames lists them).
	// The derived model is cloned from the base and Validate-checked,
	// so an inconsistent combination is a 400, not a panic in a worker.
	Machine map[string]int `json:"machine,omitempty"`
	// Predictor selects the branch predictor family for the derived
	// model: "2bit", "gshare" or "perfect". Empty keeps the base
	// family. (The PerfectBP *scheme* still overrides any family with
	// the oracle, as in the paper's tables.)
	Predictor string `json:"predictor,omitempty"`
	// Opt overrides the optimizer options (Proposed scheme only); nil
	// uses the workload's defaults.
	Opt *OptRequest `json:"opt,omitempty"`
	// TimeoutMS caps this request's simulation wall time; 0 (or
	// anything above it) means the service default.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	// DelayMS holds the job in its worker for this long before
	// simulating — a load/soak-testing knob (it widens the coalescing
	// window deterministically); capped by Config.MaxDelay.
	DelayMS int64 `json:"delay_ms,omitempty"`
}

// OptRequest is the JSON projection of core.Options: the ablation
// switches and thresholds a service caller may vary. Zero fields keep
// the optimizer's defaults.
type OptRequest struct {
	DisableLikely      bool    `json:"disable_likely,omitempty"`
	DisableGuarding    bool    `json:"disable_guarding,omitempty"`
	DisableSplitting   bool    `json:"disable_splitting,omitempty"`
	DisableSpeculation bool    `json:"disable_speculation,omitempty"`
	SpeculateLoads     bool    `json:"speculate_loads,omitempty"`
	LikelyThreshold    float64 `json:"likely_threshold,omitempty"`
	UnbiasedMax        float64 `json:"unbiased_max,omitempty"`
	MinCount           int64   `json:"min_count,omitempty"`
}

func (o *OptRequest) options() core.Options {
	return core.Options{
		DisableLikely:      o.DisableLikely,
		DisableGuarding:    o.DisableGuarding,
		DisableSplitting:   o.DisableSplitting,
		DisableSpeculation: o.DisableSpeculation,
		SpeculateLoads:     o.SpeculateLoads,
		LikelyThreshold:    o.LikelyThreshold,
		UnbiasedMax:        o.UnbiasedMax,
		MinCount:           o.MinCount,
	}
}

// canonical renders the option fields for the request key. Requests
// that spell semantically identical options differently (e.g. naming a
// default explicitly) may get distinct keys — that only costs a cache
// opportunity, never correctness.
func (o *OptRequest) canonical() string {
	if o == nil {
		return "default"
	}
	return fmt.Sprintf("dl%t,dg%t,ds%t,dsp%t,sl%t,lt%g,um%g,mc%d",
		o.DisableLikely, o.DisableGuarding, o.DisableSplitting,
		o.DisableSpeculation, o.SpeculateLoads,
		o.LikelyThreshold, o.UnbiasedMax, o.MinCount)
}

// RunResponse is one completed experiment.
type RunResponse struct {
	// Key is the content address (SHA-256 of Canonical) under which
	// the result is stored.
	Key string `json:"key"`
	// Canonical is the request's canonical identity string.
	Canonical        string `json:"canonical"`
	Workload         string `json:"workload"`
	Scheme           string `json:"scheme"`
	PredictorEntries int    `json:"predictor_entries"`
	// Source is how this response was produced: "sim" (a fresh
	// simulation), "coalesced" (attached to an identical in-flight
	// run), or "store" (read from the on-disk store).
	Source       string         `json:"source"`
	IPC          float64        `json:"ipc"`
	PredAccuracy float64        `json:"pred_accuracy"`
	SimMS        float64        `json:"sim_ms"`
	Stats        pipeline.Stats `json:"stats"`
	// Report is the optimizer's decision log (Proposed scheme only).
	Report *core.Report `json:"report,omitempty"`
}

// ParseScheme maps the accepted spellings onto bench.Scheme.
func ParseScheme(s string) (bench.Scheme, error) {
	switch strings.ReplaceAll(strings.ToLower(s), "-", "") {
	case "2bit", "2bitbp", "twobit", "twobitbp":
		return bench.SchemeTwoBit, nil
	case "proposed":
		return bench.SchemeProposed, nil
	case "perfect", "perfectbp":
		return bench.SchemePerfect, nil
	}
	return 0, fmt.Errorf("unknown scheme %q (want 2-bitBP, Proposed or PerfectBP)", s)
}

// Config assembles a Service.
type Config struct {
	// Runner executes the simulations; required. The Service shares
	// its profile and trace caches across all requests.
	Runner *bench.Runner
	// Store persists completed results; nil disables persistence.
	Store *Store
	// Workers bounds concurrent simulations; default GOMAXPROCS.
	Workers int
	// QueueDepth bounds accepted-but-not-running jobs; once full, new
	// work is shed with 429 + Retry-After. Default 64.
	QueueDepth int
	// DefaultTimeout caps each simulation's wall time (also the upper
	// bound for per-request timeouts). Default 60s.
	DefaultTimeout time.Duration
	// MaxDelay caps RunRequest.DelayMS. Default 10s.
	MaxDelay time.Duration
	// Logf receives operational messages (store write failures,
	// worker errors); nil discards them.
	Logf func(format string, args ...any)
}

// Service is the experiment engine behind the HTTP daemon: it owns the
// worker pool, the in-flight request table (singleflight) and the
// metrics. HTTP handling lives in Handler; tests drive Do directly.
type Service struct {
	cfg     Config
	runner  *bench.Runner
	store   *Store
	metrics Metrics

	// baseCtx parents every job: detached from any single request (a
	// disconnecting client must not kill a run other clients wait on),
	// cancelled only when a drain deadline forces abandonment.
	baseCtx context.Context
	cancel  context.CancelFunc

	mu       sync.Mutex
	flights  map[string]*flight
	draining bool

	// ready gates /readyz: false until the daemon finishes boot (store
	// opened, pool started, listener bound — MarkReady is the last step
	// of startup), and false again once draining begins. Liveness
	// (/healthz) is independent: a booting-but-alive process is live and
	// unready, so a cluster coordinator routes around it without a
	// supervisor restarting it.
	ready atomic.Bool

	jobs chan *flight
	wg   sync.WaitGroup
}

// flight is one in-progress simulation and the rendezvous for every
// request coalesced onto it.
type flight struct {
	key     string
	spec    bench.Spec
	req     RunRequest // normalized copy (canonical entries etc.)
	delay   time.Duration
	timeout time.Duration

	// group marks a batched sweep leader: a synthetic flight that holds
	// one worker slot and simulates all of its member flights in one
	// Runner.RunSpecs call (one trace drain per distinct program). The
	// leader itself is never in s.flights and has no waiters; its
	// members are, and coalesce like any other flight.
	group []*flight

	// explore marks a design-space sweep job (DoExplore): one worker
	// slot runs the whole grid through explore.Run, whose batched
	// RunSpecs call does its own geometry grouping. Like a group
	// leader it is never in s.flights — two identical grids re-expand
	// (the per-cell trace caches still amortize the real cost).
	explore    *explore.Request
	exploreRep *explore.Report

	done chan struct{} // closed when resp/err are set
	resp *RunResponse
	err  error
}

// Typed errors the HTTP layer maps onto status codes.

// ErrBadRequest wraps validation failures (HTTP 400).
type ErrBadRequest struct{ Err error }

func (e *ErrBadRequest) Error() string { return e.Err.Error() }
func (e *ErrBadRequest) Unwrap() error { return e.Err }

// ErrOverloaded reports queue-depth backpressure (HTTP 429).
type ErrOverloaded struct {
	// RetryAfter is the suggested client backoff.
	RetryAfter time.Duration
}

func (e *ErrOverloaded) Error() string {
	return fmt.Sprintf("queue full, retry in %s", e.RetryAfter)
}

// ErrDraining reports that shutdown has begun (HTTP 503).
var ErrDraining = errors.New("service is draining")

// NewService validates cfg, starts the worker pool, and returns the
// service.
func NewService(cfg Config) (*Service, error) {
	if cfg.Runner == nil {
		return nil, errors.New("serve: Config.Runner is required")
	}
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 64
	}
	if cfg.DefaultTimeout <= 0 {
		cfg.DefaultTimeout = 60 * time.Second
	}
	if cfg.MaxDelay <= 0 {
		cfg.MaxDelay = 10 * time.Second
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Service{
		cfg:     cfg,
		runner:  cfg.Runner,
		store:   cfg.Store,
		baseCtx: ctx,
		cancel:  cancel,
		flights: map[string]*flight{},
		jobs:    make(chan *flight, cfg.QueueDepth),
	}
	s.wg.Add(cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		go s.worker()
	}
	return s, nil
}

// Metrics exposes the live counters (the HTTP layer renders them).
func (s *Service) Metrics() *Metrics { return &s.metrics }

// MarkReady flips /readyz to 200. The daemon calls it once startup is
// complete (after the listener is bound); tests and embedders that
// skip the HTTP layer may never need it.
func (s *Service) MarkReady() { s.ready.Store(true) }

// Ready reports whether the service is past boot and not draining —
// the /readyz contract.
func (s *Service) Ready() bool {
	if !s.ready.Load() {
		return false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return !s.draining
}

// Runner returns the shared runner (metrics export reads ArchRuns).
func (s *Service) Runner() *bench.Runner { return s.runner }

// normalize validates req and derives the simulation spec and the
// canonical identity key against the service runner's base model.
func (s *Service) normalize(req *RunRequest) (bench.Spec, string, error) {
	return NormalizeRequest(req, s.runner.Model)
}

// NormalizeRequest validates req against the base machine model,
// canonicalizes its fields in place (scheme spelling, implicit
// predictor-table size), and returns the simulation spec plus the
// canonical identity key the store and singleflight layers share.
//
// It is a package function, not a Service method, because the key is a
// cluster-wide contract: the sgcoord coordinator derives the same key
// from the same request to place it on a shard, without owning a
// Runner. Both sides must normalize against the same base model for
// the keys to agree.
func NormalizeRequest(req *RunRequest, base *machine.Model) (bench.Spec, string, error) {
	w, err := bench.ByName(req.Workload)
	if err != nil {
		return bench.Spec{}, "", &ErrBadRequest{err}
	}
	scheme, err := ParseScheme(req.Scheme)
	if err != nil {
		return bench.Spec{}, "", &ErrBadRequest{err}
	}
	if err := CheckEntries(req.PredictorEntries); err != nil {
		return bench.Spec{}, "", err
	}
	if req.Opt != nil && scheme != bench.SchemeProposed {
		return bench.Spec{}, "", &ErrBadRequest{fmt.Errorf("optimizer options apply only to the Proposed scheme, not %s", scheme)}
	}
	model, err := deriveModel(req, base)
	if err != nil {
		return bench.Spec{}, "", &ErrBadRequest{err}
	}
	entries := req.PredictorEntries
	if entries == 0 {
		if model != nil {
			entries = model.PredictorEntries
		} else {
			entries = base.PredictorEntries
		}
	}
	if model != nil && model.Predictor == machine.PredGShare && entries&(entries-1) != 0 {
		return bench.Spec{}, "", &ErrBadRequest{fmt.Errorf("gshare needs a power-of-two predictor_entries, got %d", entries)}
	}
	req.PredictorEntries = entries
	req.Scheme = scheme.String()

	spec := bench.Spec{Workload: w, Scheme: scheme, Entries: entries, Model: model}
	if req.Opt != nil {
		opts := req.Opt.options()
		spec.Opt = &opts
	}
	// The identity the trace cache uses — (workload, fingerprint,
	// scheme, predictor) — plus the optimizer options that select the
	// Proposed variant. The fingerprint is the *base* program's: the
	// optimizer is deterministic, so base fingerprint + options
	// determine the rewritten program without running it. The model
	// segment is appended only when a model was derived, so every key
	// minted before the machine/predictor fields existed still addresses
	// the same stored result.
	key := fmt.Sprintf("v%d|w=%s|fp=%016x|s=%s|e=%d|o=%s",
		storeVersion, w.Name, w.Fingerprint(), scheme, entries, req.Opt.canonical())
	if model != nil {
		key += "|m=" + model.Key()
	}
	return spec, key, nil
}

// CheckEntries bounds a requested predictor table size (0 selects the
// model's own). NormalizeRequest and both services' /v1/sweep share it,
// so every endpoint accepts and rejects the same values with the same
// message.
func CheckEntries(n int) error {
	if n < 0 {
		return &ErrBadRequest{fmt.Errorf("predictor_entries must be ≥ 0, got %d", n)}
	}
	if n > machine.MaxPredictorEntries {
		return &ErrBadRequest{fmt.Errorf("predictor_entries %d exceeds the maximum %d (1<<24)", n, machine.MaxPredictorEntries)}
	}
	return nil
}

// deriveModel builds the per-request machine model from the Machine
// and Predictor override fields, or returns nil when the request keeps
// the service default. The base is always Cloned before mutation and
// the result must pass machine.Validate.
func deriveModel(req *RunRequest, base *machine.Model) (*machine.Model, error) {
	if len(req.Machine) == 0 && req.Predictor == "" {
		return nil, nil
	}
	m := base.Clone()
	if req.Predictor != "" {
		pk, err := machine.ParsePredKind(req.Predictor)
		if err != nil {
			return nil, err
		}
		m.Predictor = pk
	}
	// Apply in sorted order so key derivation (and error messages) are
	// deterministic regardless of JSON map iteration.
	names := make([]string, 0, len(req.Machine))
	for n := range req.Machine {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		if err := machine.Apply(m, n, req.Machine[n]); err != nil {
			return nil, err
		}
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return m, nil
}

// Stage names reported to Do's notify callback, in the order a request
// can traverse them.
const (
	StageStore     = "store_hit" // answered from the on-disk store
	StageCoalesced = "coalesced" // attached to an identical in-flight run
	StageQueued    = "queued"    // accepted as leader, waiting for a worker
	StageResult    = "result"    // terminal: response follows
)

// Do executes one request through the full store → coalesce → simulate
// path. notify, when non-nil, is called with the stage the request
// took before its result arrives (the NDJSON streaming handler relays
// these to the client). ctx bounds only this caller's wait: the
// simulation itself runs under the service's context so that other
// waiters and the store still get the result if this caller leaves.
func (s *Service) Do(ctx context.Context, req RunRequest, notify func(stage string)) (*RunResponse, error) {
	s.metrics.Requests.Add(1)
	spec, key, err := s.normalize(&req)
	if err != nil {
		s.metrics.BadRequests.Add(1)
		return nil, err
	}

	if s.store != nil {
		res, ok, quarantined, serr := s.store.Get(key)
		if quarantined {
			s.metrics.StoreQuarantined.Add(1)
			s.cfg.Logf("store: quarantined corrupt entry for %s", key)
		}
		if serr != nil {
			s.cfg.Logf("store: read error for %s: %v", key, serr)
		}
		if ok {
			s.metrics.StoreHits.Add(1)
			if notify != nil {
				notify(StageStore)
			}
			res.Source = "store"
			return res, nil
		}
		s.metrics.StoreMisses.Add(1)
	}

	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return nil, ErrDraining
	}
	if f, ok := s.flights[key]; ok {
		s.mu.Unlock()
		s.metrics.CoalescedHits.Add(1)
		if notify != nil {
			notify(StageCoalesced)
		}
		return s.wait(ctx, f, "coalesced")
	}
	if len(s.jobs) == cap(s.jobs) {
		queued := len(s.jobs)
		s.mu.Unlock()
		s.metrics.Rejected.Add(1)
		retry := time.Duration(1+queued/s.cfg.Workers) * time.Second
		return nil, &ErrOverloaded{RetryAfter: retry}
	}
	f := &flight{
		key:     key,
		spec:    spec,
		req:     req,
		delay:   s.delayFor(req.DelayMS),
		timeout: s.timeoutFor(req.TimeoutMS),
		done:    make(chan struct{}),
	}
	s.flights[key] = f
	s.metrics.QueueDepth.Add(1)
	s.jobs <- f // non-blocking: len < cap was checked under mu, all sends hold mu
	s.mu.Unlock()
	if notify != nil {
		notify(StageQueued)
	}
	return s.wait(ctx, f, "sim")
}

func (s *Service) delayFor(ms int64) time.Duration {
	d := time.Duration(ms) * time.Millisecond
	if d < 0 {
		return 0
	}
	if d > s.cfg.MaxDelay {
		return s.cfg.MaxDelay
	}
	return d
}

func (s *Service) timeoutFor(ms int64) time.Duration {
	d := time.Duration(ms) * time.Millisecond
	if d <= 0 || d > s.cfg.DefaultTimeout {
		return s.cfg.DefaultTimeout
	}
	return d
}

// wait blocks until f completes or the caller's ctx ends. Each waiter
// gets its own shallow copy of the response so the shared flight result
// stays immutable while Source reflects how *this* caller got it.
func (s *Service) wait(ctx context.Context, f *flight, source string) (*RunResponse, error) {
	select {
	case <-f.done:
		if f.err != nil {
			return nil, f.err
		}
		res := *f.resp
		res.Source = source
		return &res, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// worker executes flights until the jobs channel is closed by drain.
func (s *Service) worker() {
	defer s.wg.Done()
	for f := range s.jobs {
		s.metrics.QueueDepth.Add(-1)
		s.metrics.InFlight.Add(1)
		s.runFlight(f)
		s.metrics.InFlight.Add(-1)
	}
}

// runFlight performs one simulation under the service context, then
// publishes the result to every waiter and the store.
func (s *Service) runFlight(f *flight) {
	if f.group != nil {
		s.runGroupFlight(f)
		return
	}
	if f.explore != nil {
		s.runExploreFlight(f)
		return
	}
	defer func() {
		s.mu.Lock()
		delete(s.flights, f.key)
		s.mu.Unlock()
		close(f.done)
	}()

	if f.delay > 0 {
		t := time.NewTimer(f.delay)
		select {
		case <-t.C:
		case <-s.baseCtx.Done():
			t.Stop()
			f.err = s.baseCtx.Err()
			return
		}
	}

	ctx, cancel := context.WithTimeout(s.baseCtx, f.timeout)
	defer cancel()
	start := time.Now()
	result, err := s.runner.RunSpec(ctx, f.spec)
	elapsed := time.Since(start)
	s.metrics.SimRuns.Add(1)
	s.metrics.SimSeconds.Observe(elapsed)
	if err != nil {
		s.metrics.SimErrors.Add(1)
		f.err = err
		return
	}

	f.resp = &RunResponse{
		Key:              addr(f.key),
		Canonical:        f.key,
		Workload:         f.req.Workload,
		Scheme:           f.req.Scheme,
		PredictorEntries: f.req.PredictorEntries,
		Source:           "sim",
		IPC:              result.Stats.IPC(),
		PredAccuracy:     result.Stats.PredAccuracy(),
		SimMS:            float64(elapsed) / float64(time.Millisecond),
		Stats:            result.Stats,
		Report:           result.Report,
	}
	if s.store != nil {
		if err := s.store.Put(f.key, f.resp); err != nil {
			s.cfg.Logf("store: persisting %s: %v", f.key, err)
		} else {
			s.metrics.StoreWrites.Add(1)
		}
	}
}

// runGroupFlight simulates every member of a batched sweep leader with
// one Runner.RunSpecs call, so cells sharing a (workload, program)
// trace drain it once, in lockstep. Each member then publishes to its
// own waiters and the store exactly as a solo flight would. SimMS on
// every member is the whole group's wall time: the lanes share one
// drain, there is no meaningful per-lane figure.
func (s *Service) runGroupFlight(f *flight) {
	members := f.group
	defer func() {
		s.mu.Lock()
		for _, m := range members {
			delete(s.flights, m.key)
		}
		s.mu.Unlock()
		for _, m := range members {
			close(m.done)
		}
	}()

	ctx, cancel := context.WithTimeout(s.baseCtx, f.timeout)
	defer cancel()
	specs := make([]bench.Spec, len(members))
	for i, m := range members {
		specs[i] = m.spec
	}
	start := time.Now()
	results, err := s.runner.RunSpecs(ctx, specs)
	elapsed := time.Since(start)
	s.metrics.SimRuns.Add(int64(len(members)))
	s.metrics.SimSeconds.Observe(elapsed)
	if err != nil {
		s.metrics.SimErrors.Add(int64(len(members)))
		for _, m := range members {
			m.err = err
		}
		return
	}
	for i, m := range members {
		res := results[i]
		m.resp = &RunResponse{
			Key:              addr(m.key),
			Canonical:        m.key,
			Workload:         m.req.Workload,
			Scheme:           m.req.Scheme,
			PredictorEntries: m.req.PredictorEntries,
			Source:           "sim",
			IPC:              res.Stats.IPC(),
			PredAccuracy:     res.Stats.PredAccuracy(),
			SimMS:            float64(elapsed) / float64(time.Millisecond),
			Stats:            res.Stats,
			Report:           res.Report,
		}
		if s.store != nil {
			if err := s.store.Put(m.key, m.resp); err != nil {
				s.cfg.Logf("store: persisting %s: %v", m.key, err)
			} else {
				s.metrics.StoreWrites.Add(1)
			}
		}
	}
}

// runExploreFlight executes one design-space sweep in its worker slot.
// The grid's cells count as simulations in the metrics — they are, the
// batching just packs them onto fewer drains.
func (s *Service) runExploreFlight(f *flight) {
	defer close(f.done)
	ctx, cancel := context.WithTimeout(s.baseCtx, f.timeout)
	defer cancel()
	start := time.Now()
	rep, err := explore.Run(ctx, s.runner, *f.explore)
	s.metrics.SimSeconds.Observe(time.Since(start))
	if err != nil {
		s.metrics.SimErrors.Add(1)
		f.err = err
		return
	}
	s.metrics.SimRuns.Add(int64(rep.Cells))
	f.exploreRep = rep
}

// DoExplore runs one design-space sweep (internal/explore) as a single
// worker-pool job, so a grid competes for capacity like any other
// request and backpressure applies before any simulation starts. The
// grid is prechecked up front — a malformed axis or an oversized grid
// is an ErrBadRequest, never a consumed worker slot. ctx bounds only
// this caller's wait, as in Do.
func (s *Service) DoExplore(ctx context.Context, req explore.Request) (*explore.Report, error) {
	s.metrics.Requests.Add(1)
	if err := explore.Precheck(req); err != nil {
		s.metrics.BadRequests.Add(1)
		return nil, &ErrBadRequest{err}
	}

	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return nil, ErrDraining
	}
	if len(s.jobs) == cap(s.jobs) {
		queued := len(s.jobs)
		s.mu.Unlock()
		s.metrics.Rejected.Add(1)
		retry := time.Duration(1+queued/s.cfg.Workers) * time.Second
		return nil, &ErrOverloaded{RetryAfter: retry}
	}
	f := &flight{
		explore: &req,
		timeout: s.timeoutFor(0),
		done:    make(chan struct{}),
	}
	s.metrics.QueueDepth.Add(1)
	s.jobs <- f // non-blocking: len < cap was checked under mu, all sends hold mu
	s.mu.Unlock()

	select {
	case <-f.done:
		return f.exploreRep, f.err
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// sweepCell is one cell's outcome from DoSweep, in request order.
type sweepCell struct {
	Res *RunResponse
	Err error
}

// DoSweep executes a set of requests as one batched unit: store hits
// answer immediately, cells identical to an in-flight run coalesce
// onto it, and everything left becomes ONE worker-pool job whose
// RunSpecs call groups cells by shared trace — a full sweep costs one
// trace drain per distinct (workload, program) instead of one per
// cell. Returns cells aligned with reqs, or ErrOverloaded (with nil
// cells) when the queue has no slot for the group job — the caller
// may back off and retry the whole call; nothing is left enqueued.
func (s *Service) DoSweep(ctx context.Context, reqs []RunRequest) ([]sweepCell, error) {
	cells := make([]sweepCell, len(reqs))
	type miss struct {
		i    int
		spec bench.Spec
		key  string
		req  RunRequest
	}
	var misses []miss
	for i := range reqs {
		s.metrics.Requests.Add(1)
		req := reqs[i]
		spec, key, err := s.normalize(&req)
		if err != nil {
			s.metrics.BadRequests.Add(1)
			cells[i].Err = err
			continue
		}
		if s.store != nil {
			res, ok, quarantined, serr := s.store.Get(key)
			if quarantined {
				s.metrics.StoreQuarantined.Add(1)
				s.cfg.Logf("store: quarantined corrupt entry for %s", key)
			}
			if serr != nil {
				s.cfg.Logf("store: read error for %s: %v", key, serr)
			}
			if ok {
				s.metrics.StoreHits.Add(1)
				res.Source = "store"
				cells[i].Res = res
				continue
			}
			s.metrics.StoreMisses.Add(1)
		}
		misses = append(misses, miss{i, spec, key, req})
	}
	if len(misses) == 0 {
		return cells, nil
	}

	type waiter struct {
		i      int
		f      *flight
		source string
	}
	var waits []waiter
	var members []*flight
	timeout := s.timeoutFor(0)

	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		for _, ms := range misses {
			cells[ms.i].Err = ErrDraining
		}
		return cells, nil
	}
	// The whole group takes one queue slot; check before building any
	// member so an overloaded return leaves no state behind.
	if len(s.jobs) == cap(s.jobs) {
		queued := len(s.jobs)
		s.mu.Unlock()
		s.metrics.Rejected.Add(1)
		retry := time.Duration(1+queued/s.cfg.Workers) * time.Second
		return nil, &ErrOverloaded{RetryAfter: retry}
	}
	for _, ms := range misses {
		if f, ok := s.flights[ms.key]; ok {
			s.metrics.CoalescedHits.Add(1)
			waits = append(waits, waiter{ms.i, f, "coalesced"})
			continue
		}
		f := &flight{
			key:     ms.key,
			spec:    ms.spec,
			req:     ms.req,
			timeout: timeout,
			done:    make(chan struct{}),
		}
		s.flights[ms.key] = f
		members = append(members, f)
		waits = append(waits, waiter{ms.i, f, "sim"})
	}
	if len(members) > 0 {
		s.metrics.QueueDepth.Add(1)
		s.jobs <- &flight{group: members, timeout: timeout} // non-blocking: len < cap checked under mu
	}
	s.mu.Unlock()

	for _, wt := range waits {
		res, err := s.wait(ctx, wt.f, wt.source)
		cells[wt.i] = sweepCell{res, err}
	}
	return cells, nil
}

// BeginDrain refuses new work: subsequent Do calls (and /healthz)
// report draining, already-queued flights still run to completion.
// Safe to call more than once.
func (s *Service) BeginDrain() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return
	}
	s.draining = true
	s.metrics.Draining.Store(1)
	close(s.jobs)
}

// WaitIdle blocks until every accepted flight has completed, or until
// ctx expires — at which point in-flight simulations are cancelled
// (cooperatively, via the pipeline's context poll) and the workers are
// still awaited so no goroutine outlives the call.
func (s *Service) WaitIdle(ctx context.Context) error {
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		s.cancel()
		<-done
		return ctx.Err()
	}
}

// Drain is BeginDrain + WaitIdle: the full graceful shutdown for
// callers without an HTTP server in front (tests, embedding).
func (s *Service) Drain(ctx context.Context) error {
	s.BeginDrain()
	return s.WaitIdle(ctx)
}

// Draining reports whether shutdown has begun.
func (s *Service) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}
