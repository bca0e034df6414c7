package serve

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"testing"
	"time"

	"specguard/internal/bench"
)

func newTestService(t *testing.T, mutate func(*Config)) *Service {
	t.Helper()
	cfg := Config{
		Runner:     bench.NewRunner(),
		Workers:    2,
		QueueDepth: 8,
		Logf:       t.Logf,
	}
	store, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cfg.Store = store
	if mutate != nil {
		mutate(&cfg)
	}
	s, err := NewService(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		s.Drain(ctx)
	})
	return s
}

func TestNormalizeKeyIdentity(t *testing.T) {
	s := newTestService(t, nil)

	// Implicit and explicit default predictor size share one identity.
	def := s.runner.Model.PredictorEntries
	_, k1, err := s.normalize(&RunRequest{Workload: "grep", Scheme: "2bit"})
	if err != nil {
		t.Fatal(err)
	}
	_, k2, err := s.normalize(&RunRequest{Workload: "grep", Scheme: "2-bitBP", PredictorEntries: def})
	if err != nil {
		t.Fatal(err)
	}
	if k1 != k2 {
		t.Errorf("default-entries spellings differ:\n%s\n%s", k1, k2)
	}

	// Timeout and delay are execution parameters, not identity.
	_, k3, _ := s.normalize(&RunRequest{Workload: "grep", Scheme: "2bit", TimeoutMS: 5000, DelayMS: 100})
	if k1 != k3 {
		t.Errorf("timeout/delay leaked into the identity key:\n%s\n%s", k1, k3)
	}

	// Scheme, entries and optimizer options are identity.
	_, k4, _ := s.normalize(&RunRequest{Workload: "grep", Scheme: "perfect"})
	_, k5, _ := s.normalize(&RunRequest{Workload: "grep", Scheme: "2bit", PredictorEntries: 4})
	_, k6, _ := s.normalize(&RunRequest{Workload: "grep", Scheme: "proposed"})
	_, k7, _ := s.normalize(&RunRequest{Workload: "grep", Scheme: "proposed", Opt: &OptRequest{DisableSplitting: true}})
	keys := map[string]bool{k1: true, k4: true, k5: true, k6: true, k7: true}
	if len(keys) != 5 {
		t.Errorf("expected 5 distinct identities, got %d: %v", len(keys), keys)
	}
}

func TestNormalizeRejects(t *testing.T) {
	s := newTestService(t, nil)
	cases := []RunRequest{
		{Workload: "nope", Scheme: "2bit"},
		{Workload: "grep", Scheme: "wat"},
		{Workload: "grep", Scheme: "2bit", PredictorEntries: -1},
		{Workload: "grep", Scheme: "perfect", Opt: &OptRequest{DisableLikely: true}},
	}
	for _, req := range cases {
		if _, _, err := s.normalize(&req); err == nil {
			t.Errorf("normalize(%+v) accepted an invalid request", req)
		} else {
			var bad *ErrBadRequest
			if !errors.As(err, &bad) {
				t.Errorf("normalize(%+v): error %v is not ErrBadRequest", req, err)
			}
		}
	}
}

// TestCoalescing is the tentpole invariant: N identical concurrent
// requests perform exactly one architectural run and one simulation;
// N-1 requests coalesce onto the leader.
func TestCoalescing(t *testing.T) {
	s := newTestService(t, nil)
	const n = 8
	req := RunRequest{Workload: "grep", Scheme: "2bit", DelayMS: 300}

	var wg sync.WaitGroup
	resps := make([]*RunResponse, n)
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resps[i], errs[i] = s.Do(context.Background(), req, nil)
		}(i)
	}
	wg.Wait()

	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("request %d: %v", i, errs[i])
		}
	}
	if got := s.runner.ArchRuns(); got != 1 {
		t.Errorf("ArchRuns = %d, want 1 (one machine for n identical requests)", got)
	}
	if got := s.metrics.SimRuns.Load(); got != 1 {
		t.Errorf("SimRuns = %d, want 1", got)
	}
	if got := s.metrics.CoalescedHits.Load(); got != n-1 {
		t.Errorf("CoalescedHits = %d, want %d", got, n-1)
	}
	var simSources, coalescedSources int
	for i := 0; i < n; i++ {
		switch resps[i].Source {
		case "sim":
			simSources++
		case "coalesced":
			coalescedSources++
		}
		if !reflect.DeepEqual(resps[i].Stats, resps[0].Stats) {
			t.Errorf("request %d got different Stats than the leader", i)
		}
	}
	if simSources != 1 || coalescedSources != n-1 {
		t.Errorf("sources: sim=%d coalesced=%d, want 1/%d", simSources, coalescedSources, n-1)
	}
}

// TestStoreHitAcrossRestart: a second service sharing the store dir
// answers the same request from disk with zero simulations.
func TestStoreHitAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	open := func() *Service {
		return newTestService(t, func(c *Config) {
			st, err := OpenStore(dir)
			if err != nil {
				t.Fatal(err)
			}
			c.Store = st
		})
	}
	req := RunRequest{Workload: "grep", Scheme: "2bit"}

	s1 := open()
	first, err := s1.Do(context.Background(), req, nil)
	if err != nil {
		t.Fatal(err)
	}
	if first.Source != "sim" {
		t.Fatalf("first request source = %q, want sim", first.Source)
	}

	s2 := open() // fresh runner: no profiles, no programs
	second, err := s2.Do(context.Background(), req, nil)
	if err != nil {
		t.Fatal(err)
	}
	if second.Source != "store" {
		t.Errorf("post-restart source = %q, want store", second.Source)
	}
	if got := s2.runner.ArchRuns(); got != 0 {
		t.Errorf("post-restart ArchRuns = %d, want 0 (no re-simulation)", got)
	}
	if got := s2.metrics.SimRuns.Load(); got != 0 {
		t.Errorf("post-restart SimRuns = %d, want 0", got)
	}
	if !reflect.DeepEqual(second.Stats, first.Stats) {
		t.Errorf("stored Stats diverged from the original:\nfirst:  %+v\nsecond: %+v", first.Stats, second.Stats)
	}
}

// TestTimingVariantsShareTraces: distinct predictor sizes are distinct
// identities (no false sharing) but reuse the program's machine.
func TestTimingVariantsShareTraces(t *testing.T) {
	s := newTestService(t, nil)
	for _, entries := range []int{0, 4, 64} {
		req := RunRequest{Workload: "grep", Scheme: "2bit", PredictorEntries: entries}
		if _, err := s.Do(context.Background(), req, nil); err != nil {
			t.Fatal(err)
		}
	}
	if got := s.runner.ArchRuns(); got != 1 {
		t.Errorf("ArchRuns = %d, want 1 (timing sweep must reuse the machine)", got)
	}
	if got := s.metrics.SimRuns.Load(); got != 3 {
		t.Errorf("SimRuns = %d, want 3 (one per table size)", got)
	}
}

func TestBackpressure(t *testing.T) {
	s := newTestService(t, func(c *Config) {
		c.Workers = 1
		c.QueueDepth = 1
	})
	wg := holdPool(t, s, 2000, func(req RunRequest) { s.Do(context.Background(), req, nil) })
	defer wg.Wait()

	_, err := s.Do(context.Background(), RunRequest{Workload: "grep", Scheme: "proposed"}, nil)
	var over *ErrOverloaded
	if !errors.As(err, &over) {
		t.Fatalf("saturated service returned %v, want ErrOverloaded", err)
	}
	if over.RetryAfter < time.Second {
		t.Errorf("RetryAfter = %v, want ≥ 1s", over.RetryAfter)
	}
	if got := s.metrics.Rejected.Load(); got != 1 {
		t.Errorf("Rejected = %d, want 1", got)
	}
}

// TestSweepOfInFlightCellsCoalesces: with the queue full, a sweep whose
// every uncached cell is already running or queued coalesces onto those
// flights, as Do does for one of them, instead of being shed.
func TestSweepOfInFlightCellsCoalesces(t *testing.T) {
	s := newTestService(t, func(c *Config) {
		c.Workers = 1
		c.QueueDepth = 1
	})
	wg := holdPool(t, s, 2000, func(req RunRequest) { s.Do(context.Background(), req, nil) })
	defer wg.Wait()

	cells, err := s.DoSweep(context.Background(), []RunRequest{
		{Workload: "grep", Scheme: "2bit"},
		{Workload: "grep", Scheme: "perfect"},
	})
	if err != nil {
		t.Fatalf("sweep of in-flight cells = %v, want it coalesced", err)
	}
	for i, c := range cells {
		if c.Err != nil || c.Res.Source != "coalesced" {
			t.Errorf("cell %d: err %v, response %+v; want a coalesced result", i, c.Err, c.Res)
		}
	}
	if got := s.metrics.Rejected.Load(); got != 0 {
		t.Errorf("Rejected = %d, want 0", got)
	}
	if got := s.metrics.CoalescedHits.Load(); got != 2 {
		t.Errorf("CoalescedHits = %d, want 2", got)
	}
}

// holdPool fills a one-worker, one-slot service with two slow, distinct
// requests sent through do, each held delayMS before it simulates. The
// second goes only once the first is running: sent together, it can
// find the first still in the queue, before the worker took it, and be
// shed. The returned WaitGroup waits for both calls.
func holdPool(t *testing.T, s *Service, delayMS int64, do func(RunRequest)) *sync.WaitGroup {
	t.Helper()
	var wg sync.WaitGroup
	for queued, scheme := range []string{"2bit", "perfect"} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			do(RunRequest{Workload: "grep", Scheme: scheme, DelayMS: delayMS})
		}()
		// Generous deadline: under -race on a small machine the
		// first-touch normalization (workload fingerprinting) can eat
		// seconds before a request even reaches the queue.
		deadline := time.Now().Add(30 * time.Second)
		for s.metrics.InFlight.Load() != 1 || s.metrics.QueueDepth.Load() != int64(queued) {
			if time.Now().After(deadline) {
				t.Fatalf("pool never saturated: inflight=%d queued=%d",
					s.metrics.InFlight.Load(), s.metrics.QueueDepth.Load())
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	return &wg
}

// TestGracefulDrain: queued work completes during drain, new work is
// refused, and WaitIdle returns once the pool is quiet.
func TestGracefulDrain(t *testing.T) {
	s := newTestService(t, nil)
	req := RunRequest{Workload: "grep", Scheme: "2bit", DelayMS: 300}
	type outcome struct {
		res *RunResponse
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		res, err := s.Do(context.Background(), req, nil)
		done <- outcome{res, err}
	}()
	// Let the request enter the pool before draining.
	deadline := time.Now().Add(5 * time.Second)
	for s.metrics.InFlight.Load()+s.metrics.QueueDepth.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("request never entered the pool")
		}
		time.Sleep(2 * time.Millisecond)
	}

	s.BeginDrain()
	if _, err := s.Do(context.Background(), RunRequest{Workload: "grep", Scheme: "perfect"}, nil); !errors.Is(err, ErrDraining) {
		t.Errorf("Do during drain = %v, want ErrDraining", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.WaitIdle(ctx); err != nil {
		t.Fatalf("WaitIdle: %v", err)
	}
	o := <-done
	if o.err != nil {
		t.Fatalf("in-flight request failed during drain: %v", o.err)
	}
	if o.res.Source != "sim" {
		t.Errorf("drained request source = %q, want sim", o.res.Source)
	}
	// The drained result was persisted.
	if got := s.metrics.StoreWrites.Load(); got != 1 {
		t.Errorf("StoreWrites = %d, want 1 (drain must not drop the persist)", got)
	}
}

// TestForcedDrainCancelsSimulations: when the drain deadline passes,
// WaitIdle cancels in-flight work instead of hanging.
func TestForcedDrainCancelsSimulations(t *testing.T) {
	s := newTestService(t, nil)
	req := RunRequest{Workload: "grep", Scheme: "2bit", DelayMS: 30000}
	errc := make(chan error, 1)
	go func() {
		_, err := s.Do(context.Background(), req, nil)
		errc <- err
	}()
	deadline := time.Now().Add(5 * time.Second)
	for s.metrics.InFlight.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("request never entered the pool")
		}
		time.Sleep(2 * time.Millisecond)
	}
	s.BeginDrain()
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := s.WaitIdle(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("WaitIdle = %v, want deadline exceeded", err)
	}
	select {
	case err := <-errc:
		if err == nil {
			t.Error("forcibly cancelled request reported success")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("request still blocked after forced drain")
	}
}

// TestPerRequestTimeout: a tiny timeout aborts the simulation through
// the pipeline's cooperative cancellation.
func TestPerRequestTimeout(t *testing.T) {
	s := newTestService(t, nil)
	req := RunRequest{Workload: "xlisp", Scheme: "2bit", TimeoutMS: 1}
	_, err := s.Do(context.Background(), req, nil)
	if err == nil {
		t.Skip("simulation finished inside 1ms; timeout untestable on this machine")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("timed-out request error = %v, want DeadlineExceeded in the chain", err)
	}
	if got := s.metrics.SimErrors.Load(); got != 1 {
		t.Errorf("SimErrors = %d, want 1", got)
	}
	// A failed flight must not poison the identity: a retry without
	// the timeout succeeds.
	res, err := s.Do(context.Background(), RunRequest{Workload: "xlisp", Scheme: "2bit"}, nil)
	if err != nil {
		t.Fatalf("retry after timeout: %v", err)
	}
	if res.Source != "sim" {
		t.Errorf("retry source = %q, want sim", res.Source)
	}
}

// TestRunJobCarriesDelayAndTimeout: a /v1/run miss is a one-member
// group job that carries its request's delay and timeout. A job held by
// its delay simulates nothing before the delay ends, so cancelling the
// service meanwhile leaves SimRuns at 0; and a 1 ms timeout cuts a
// simulation that takes far longer, where the service default (60 s)
// would not.
func TestRunJobCarriesDelayAndTimeout(t *testing.T) {
	s := newTestService(t, nil)
	done := make(chan error, 1)
	go func() {
		_, err := s.Do(context.Background(), RunRequest{Workload: "grep", Scheme: "2bit", DelayMS: 5000}, nil)
		done <- err
	}()
	waitUntil(t, func() bool { return s.metrics.InFlight.Load() == 1 })
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	s.Drain(ctx) // cancels the service context at once
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Errorf("delayed request cancelled by the drain = %v, want context.Canceled", err)
	}
	if got := s.metrics.SimRuns.Load(); got != 0 {
		t.Errorf("SimRuns = %d, want 0: the job simulated before its delay ended", got)
	}

	s = newTestService(t, nil)
	_, err := s.Do(context.Background(), RunRequest{Workload: "xlisp", Scheme: "2bit", TimeoutMS: 1}, nil)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("request with a 1 ms timeout = %v, want DeadlineExceeded in the chain", err)
	}
}

// TestGroupJobTakesLeadersDelayAndTimeout: a group job runs under the
// smallest timeout and waits the largest delay its leaders' requests
// ask for. One cell's 1 ms timeout fails both cells of a sweep, and one
// cell's 5 s delay holds both, so cancelling the service meanwhile
// leaves SimRuns at 0.
func TestGroupJobTakesLeadersDelayAndTimeout(t *testing.T) {
	s := newTestService(t, nil)
	cells, err := s.DoSweep(context.Background(), []RunRequest{
		{Workload: "xlisp", Scheme: "2bit"},
		{Workload: "xlisp", Scheme: "perfect", TimeoutMS: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range cells {
		if !errors.Is(c.Err, context.DeadlineExceeded) {
			t.Errorf("cell %d of a sweep with a 1 ms timeout = %v, want DeadlineExceeded in the chain", i, c.Err)
		}
	}

	s = newTestService(t, nil)
	done := make(chan []sweepCell, 1)
	go func() {
		cells, _ := s.DoSweep(context.Background(), []RunRequest{
			{Workload: "grep", Scheme: "2bit"},
			{Workload: "grep", Scheme: "perfect", DelayMS: 5000},
		})
		done <- cells
	}()
	waitUntil(t, func() bool { return s.metrics.InFlight.Load() == 1 })
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	s.Drain(ctx) // cancels the service context at once
	for i, c := range <-done {
		if !errors.Is(c.Err, context.Canceled) {
			t.Errorf("cell %d of a delayed sweep cancelled by the drain = %v, want context.Canceled", i, c.Err)
		}
	}
	if got := s.metrics.SimRuns.Load(); got != 0 {
		t.Errorf("SimRuns = %d, want 0: the job simulated before its delay ended", got)
	}
}
