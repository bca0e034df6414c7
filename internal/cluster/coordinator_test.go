package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"specguard/internal/serve"
)

// fakeBackend is a stub sgserved: it answers /v1/run with a canned
// JSON body and counts hits, without simulating anything.
type fakeBackend struct {
	ts    *httptest.Server
	hits  atomic.Int64
	delay time.Duration
	// status overrides the /v1/run answer when non-zero.
	status     atomic.Int64
	retryAfter string
}

func newFakeBackend(t *testing.T) *fakeBackend {
	t.Helper()
	fb := &fakeBackend{}
	mux := http.NewServeMux()
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "ready")
	})
	mux.HandleFunc("/v1/run", func(w http.ResponseWriter, r *http.Request) {
		fb.hits.Add(1)
		if fb.delay > 0 {
			time.Sleep(fb.delay)
		}
		if st := fb.status.Load(); st != 0 {
			if fb.retryAfter != "" {
				w.Header().Set("Retry-After", fb.retryAfter)
			}
			w.WriteHeader(int(st))
			fmt.Fprintf(w, `{"error":"stub status %d"}`, st)
			return
		}
		var req serve.RunRequest
		json.NewDecoder(r.Body).Decode(&req)
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintf(w, `{"workload":%q,"scheme":%q,"source":"sim","backend_stub":true}`,
			req.Workload, req.Scheme)
	})
	fb.ts = httptest.NewServer(mux)
	t.Cleanup(fb.ts.Close)
	return fb
}

func newTestCoordinator(t *testing.T, backends []string, mutate func(*Config)) *Coordinator {
	t.Helper()
	cfg := Config{
		Backends:       backends,
		VNodes:         32,
		AttemptTimeout: 5 * time.Second,
		Health: HealthConfig{
			Interval:      50 * time.Millisecond,
			ProbeTimeout:  time.Second,
			FailThreshold: 2,
			BackoffBase:   20 * time.Millisecond,
			BackoffMax:    100 * time.Millisecond,
		},
		Logf: t.Logf,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c
}

// TestClusterSingleflight drives N concurrent identical requests
// through the coordinator (run with -race in make check): exactly one
// upstream exchange happens, every caller gets the same body, and the
// followers are counted as coalesced.
func TestClusterSingleflight(t *testing.T) {
	fb := newFakeBackend(t)
	fb.delay = 100 * time.Millisecond // hold the exchange open so followers pile on
	c := newTestCoordinator(t, []string{fb.ts.URL}, nil)

	const callers = 16
	var wg sync.WaitGroup
	bodies := make([]string, callers)
	errs := make([]error, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			up, _, err := c.DoRun(context.Background(), fmt.Sprintf("client-%d", i%4),
				serve.RunRequest{Workload: "grep", Scheme: "2bit"}, false)
			errs[i] = err
			if err == nil {
				bodies[i] = string(up.Body)
			}
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("caller %d: %v", i, err)
		}
		if bodies[i] != bodies[0] {
			t.Errorf("caller %d body %q differs from leader %q", i, bodies[i], bodies[0])
		}
	}
	if got := fb.hits.Load(); got != 1 {
		t.Errorf("backend saw %d exchanges for %d identical concurrent requests, want 1", got, callers)
	}
	if got := c.metrics.Coalesced.Load(); got != callers-1 {
		t.Errorf("coalesced = %d, want %d", got, callers-1)
	}
}

// TestRerouteOnDeadBackend kills a request's primary shard: the
// exchange must answer from the next ring replica with no
// client-visible failure, and the dead backend must get ejected.
func TestRerouteOnDeadBackend(t *testing.T) {
	fb1, fb2 := newFakeBackend(t), newFakeBackend(t)
	c := newTestCoordinator(t, []string{fb1.ts.URL, fb2.ts.URL}, nil)

	req := serve.RunRequest{Workload: "grep", Scheme: "2bit"}
	info, err := c.Shard(req)
	if err != nil {
		t.Fatal(err)
	}
	primary, secondary := fb1, fb2
	if info.Owner == fb2.ts.URL {
		primary, secondary = fb2, fb1
	}
	primary.ts.Close() // connection refused from here on

	up, _, err := c.DoRun(context.Background(), "client", req, false)
	if err != nil {
		t.Fatalf("request failed instead of re-routing: %v", err)
	}
	if up.Status != http.StatusOK {
		t.Fatalf("re-routed status = %d", up.Status)
	}
	if up.Backend != secondary.ts.URL {
		t.Errorf("answered by %s, want the surviving replica %s", up.Backend, secondary.ts.URL)
	}
	if up.Attempts < 2 {
		t.Errorf("attempts = %d, want ≥ 2 (the dead primary counts)", up.Attempts)
	}
	if c.metrics.Reroutes.Load() == 0 {
		t.Error("reroutes metric stayed 0")
	}

	// The health checker must eject the dead backend shortly (passive
	// failure above plus active probes).
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) && c.health.Healthy(primary.ts.URL) {
		time.Sleep(10 * time.Millisecond)
	}
	if c.health.Healthy(primary.ts.URL) {
		t.Error("dead backend never ejected")
	}
	if !c.health.Healthy(secondary.ts.URL) {
		t.Error("surviving backend wrongly ejected")
	}
}

// TestAllReplicasShedPropagates429 pins the interactive Retry-After
// contract: when every replica sheds, the client gets the 429 (with
// the smallest Retry-After) rather than an error.
func TestAllReplicasShedPropagates429(t *testing.T) {
	fb1, fb2 := newFakeBackend(t), newFakeBackend(t)
	fb1.status.Store(http.StatusTooManyRequests)
	fb1.retryAfter = "7"
	fb2.status.Store(http.StatusTooManyRequests)
	fb2.retryAfter = "3"
	c := newTestCoordinator(t, []string{fb1.ts.URL, fb2.ts.URL}, nil)

	up, _, err := c.DoRun(context.Background(), "client", serve.RunRequest{Workload: "grep", Scheme: "2bit"}, false)
	if err != nil {
		t.Fatalf("DoRun: %v", err)
	}
	if up.Status != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429", up.Status)
	}
	if up.RetryAfter != "3" {
		t.Errorf("Retry-After = %q, want the smallest backend value \"3\"", up.RetryAfter)
	}
	if c.metrics.Upstream429.Load() != 2 {
		t.Errorf("upstream 429 count = %d, want 2 (both replicas tried)", c.metrics.Upstream429.Load())
	}
}

// TestSweepCellRetriesShed pins the batch path: a sweep cell absorbs a
// transient upstream 429 by honoring Retry-After and retrying, so the
// sweep completes instead of surfacing a shed.
func TestSweepCellRetriesShed(t *testing.T) {
	fb := newFakeBackend(t)
	fb.status.Store(http.StatusTooManyRequests)
	fb.retryAfter = "1"
	c := newTestCoordinator(t, []string{fb.ts.URL}, nil)

	go func() {
		time.Sleep(300 * time.Millisecond)
		fb.status.Store(0) // backend recovers
	}()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	up, _, err := c.DoRun(ctx, "client", serve.RunRequest{Workload: "grep", Scheme: "2bit"}, true)
	if err != nil {
		t.Fatalf("sweep cell: %v", err)
	}
	if up.Status != http.StatusOK {
		t.Fatalf("status = %d after recovery, want 200", up.Status)
	}
	if fb.hits.Load() < 2 {
		t.Errorf("backend hits = %d, want ≥ 2 (shed then retry)", fb.hits.Load())
	}
}

// TestShardPlacementSpread sanity-checks that the full sweep's 12
// cells actually spread across a 3-backend ring rather than clumping
// on one (this is probabilistic in the key hashes but deterministic
// for the fixed key set, so it is a stable regression pin).
func TestShardPlacementSpread(t *testing.T) {
	fb1, fb2, fb3 := newFakeBackend(t), newFakeBackend(t), newFakeBackend(t)
	c := newTestCoordinator(t, []string{fb1.ts.URL, fb2.ts.URL, fb3.ts.URL}, nil)

	owners := map[string]int{}
	for _, wl := range []string{"compress", "espresso", "xlisp", "grep"} {
		for _, scheme := range []string{"2bit", "proposed", "perfect"} {
			info, err := c.Shard(serve.RunRequest{Workload: wl, Scheme: scheme})
			if err != nil {
				t.Fatal(err)
			}
			owners[info.Owner]++
		}
	}
	if len(owners) < 2 {
		t.Errorf("12 sweep cells all landed on one backend: %v", owners)
	}
}

// TestAdmissionFairShare pins the starvation property end to end on
// the controller: with one slot busy and a greedy client's batch
// requests queued first, an interactive request from another client is
// granted ahead of all of them.
func TestAdmissionFairShare(t *testing.T) {
	a := NewAdmission(AdmissionConfig{MaxConcurrent: 1, MaxQueue: 8})

	release, err := a.Acquire(context.Background(), "greedy", false)
	if err != nil {
		t.Fatal(err)
	}

	order := make(chan string, 8)
	var wg sync.WaitGroup
	acquire := func(client string, interactive bool, tag string) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rel, err := a.Acquire(context.Background(), client, interactive)
			if err != nil {
				t.Errorf("%s: %v", tag, err)
				return
			}
			order <- tag
			rel()
		}()
	}
	// Three greedy batch waiters queue first...
	acquire("greedy", false, "batch-1")
	time.Sleep(20 * time.Millisecond)
	acquire("greedy", false, "batch-2")
	time.Sleep(20 * time.Millisecond)
	acquire("greedy", false, "batch-3")
	time.Sleep(20 * time.Millisecond)
	// ...then an interactive caller arrives last.
	acquire("interactive-user", true, "run-1")
	time.Sleep(20 * time.Millisecond)

	release() // free the slot: the interactive waiter must win
	wg.Wait()
	close(order)
	var got []string
	for tag := range order {
		got = append(got, tag)
	}
	if len(got) != 4 {
		t.Fatalf("completed %d acquisitions, want 4", len(got))
	}
	if got[0] != "run-1" {
		t.Errorf("grant order %v: interactive request must be granted first", got)
	}
}

// TestAdmissionFairShareWithinClass: among waiters of one class the
// next slot goes to the client holding the fewest, ahead of an older
// waiter. A holds both slots and queues a third batch request, then B
// queues one: releasing one of A's slots grants B, then A.
func TestAdmissionFairShareWithinClass(t *testing.T) {
	a := NewAdmission(AdmissionConfig{MaxConcurrent: 2, MaxQueue: 8})
	var held []func()
	for range 2 {
		release, err := a.Acquire(context.Background(), "A", false)
		if err != nil {
			t.Fatal(err)
		}
		held = append(held, release)
	}
	granted := make(chan string, 2)
	for i, client := range []string{"A", "B"} {
		go func() {
			release, err := a.Acquire(context.Background(), client, false)
			if err != nil {
				t.Errorf("%s: %v", client, err)
				granted <- ""
				return
			}
			granted <- client
			release()
		}()
		deadline := time.Now().Add(5 * time.Second)
		for a.Depth() != i+1 {
			if time.Now().After(deadline) {
				t.Fatalf("%s never queued", client)
			}
			time.Sleep(time.Millisecond)
		}
	}
	// B releases its slot at once, and that release grants A.
	held[0]()
	for i, want := range []string{"B", "A"} {
		if got := <-granted; got != want {
			t.Errorf("grant %d went to %q, want %s", i+1, got, want)
		}
	}
	held[1]()
}

// TestAdmissionDisplacement: a full queue of batch waiters must not
// shed an arriving interactive request — the youngest batch waiter is
// displaced (shed with 429) instead.
func TestAdmissionDisplacement(t *testing.T) {
	a := NewAdmission(AdmissionConfig{MaxConcurrent: 1, MaxQueue: 2})
	release, err := a.Acquire(context.Background(), "c0", false)
	if err != nil {
		t.Fatal(err)
	}

	type outcome struct {
		tag string
		err error
	}
	results := make(chan outcome, 4)
	var wg sync.WaitGroup
	acquire := func(client string, interactive bool, tag string) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rel, err := a.Acquire(context.Background(), client, interactive)
			results <- outcome{tag, err}
			if err == nil {
				rel()
			}
		}()
	}
	acquire("sweeper", false, "batch-old")
	time.Sleep(20 * time.Millisecond)
	acquire("sweeper", false, "batch-young")
	time.Sleep(20 * time.Millisecond)

	// Queue is now full (2). A batch arrival is shed outright...
	if _, err := a.Acquire(context.Background(), "sweeper", false); err == nil {
		t.Fatal("batch acquire on a full queue did not shed")
	} else if !strings.Contains(err.Error(), "queue full") {
		t.Fatalf("unexpected shed error: %v", err)
	}
	// ...but an interactive arrival displaces the youngest batch waiter.
	acquire("user", true, "run")
	time.Sleep(20 * time.Millisecond)

	release()
	wg.Wait()
	close(results)
	byTag := map[string]error{}
	for o := range results {
		byTag[o.tag] = o.err
	}
	if err := byTag["run"]; err != nil {
		t.Errorf("interactive request shed despite displacement: %v", err)
	}
	if err := byTag["batch-old"]; err != nil {
		t.Errorf("older batch waiter should have survived: %v", err)
	}
	var shed *ErrShed
	if err := byTag["batch-young"]; err == nil || !errorsAs(err, &shed) {
		t.Errorf("youngest batch waiter should have been displaced with ErrShed, got %v", err)
	}
}

func errorsAs(err error, target any) bool {
	switch t := target.(type) {
	case **ErrShed:
		e, ok := err.(*ErrShed)
		if ok {
			*t = e
		}
		return ok
	}
	return false
}

// TestCoordinatorHTTP drives the wire surface against stub backends:
// run proxying with backend annotation, shard resolution, state, and
// metrics rendering.
// TestCoordinatorSweepEntriesValidation: the coordinator's /v1/sweep
// bounds entries with the same check as the backends, answering 400
// before any cell reaches a backend.
func TestCoordinatorSweepEntriesValidation(t *testing.T) {
	fb := newFakeBackend(t)
	c := newTestCoordinator(t, []string{fb.ts.URL}, nil)
	ts := httptest.NewServer(c.Handler())
	t.Cleanup(ts.Close)
	for _, v := range []string{"-1", "16777217", "99999999999"} {
		resp, err := http.Get(ts.URL + "/v1/sweep?entries=" + v)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), "predictor_entries") {
			t.Errorf("GET /v1/sweep?entries=%s = %d %s, want 400 naming predictor_entries", v, resp.StatusCode, body)
		}
	}
	if n := fb.hits.Load(); n != 0 {
		t.Errorf("rejected sweeps sent %d cells to the backend", n)
	}
	if n := c.metrics.BadRequests.Load(); n != 3 {
		t.Errorf("bad requests = %d, want 3", n)
	}
}

func TestCoordinatorHTTP(t *testing.T) {
	fb1, fb2 := newFakeBackend(t), newFakeBackend(t)
	c := newTestCoordinator(t, []string{fb1.ts.URL, fb2.ts.URL}, nil)
	ts := httptest.NewServer(c.Handler())
	t.Cleanup(ts.Close)

	resp, err := http.Post(ts.URL+"/v1/run", "application/json",
		strings.NewReader(`{"workload":"grep","scheme":"2bit"}`))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /v1/run = %d: %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get("X-SG-Backend"); got != fb1.ts.URL && got != fb2.ts.URL {
		t.Errorf("X-SG-Backend = %q, want one of the backends", got)
	}
	if !strings.Contains(string(body), `"backend_stub":true`) {
		t.Errorf("response not proxied from stub: %s", body)
	}

	// Bad request is a 400 at the coordinator, no upstream exchange.
	resp, err = http.Post(ts.URL+"/v1/run", "application/json",
		strings.NewReader(`{"workload":"nope","scheme":"2bit"}`))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown workload = %d, want 400", resp.StatusCode)
	}

	// Shard resolution round-trips the canonical key.
	resp, err = http.Get(ts.URL + "/cluster/shard?workload=grep&scheme=2bit")
	if err != nil {
		t.Fatal(err)
	}
	var info ShardInfo
	json.NewDecoder(resp.Body).Decode(&info)
	resp.Body.Close()
	if !strings.HasPrefix(info.Canonical, "v1|w=grep|") {
		t.Errorf("canonical = %q", info.Canonical)
	}
	if info.Owner != fb1.ts.URL && info.Owner != fb2.ts.URL {
		t.Errorf("owner = %q", info.Owner)
	}
	if len(info.Replicas) != 2 || info.Replicas[0] != info.Owner {
		t.Errorf("replicas = %v, want primary-first pair", info.Replicas)
	}

	// State and metrics surfaces render.
	resp, _ = http.Get(ts.URL + "/cluster/state")
	var st clusterState
	json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	if len(st.Backends) != 2 || st.VNodes != 32 {
		t.Errorf("state = %+v", st)
	}
	resp, _ = http.Get(ts.URL + "/metrics")
	mbody, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{
		"sgcoord_requests_total",
		"sgcoord_proxied_total 1",
		"sgcoord_backend_healthy{backend=",
	} {
		if !strings.Contains(string(mbody), want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	// Readiness flips when draining.
	if resp, _ := http.Get(ts.URL + "/readyz"); resp.StatusCode != http.StatusOK {
		t.Errorf("/readyz = %d before drain", resp.StatusCode)
	}
	c.BeginDrain()
	if resp, _ := http.Get(ts.URL + "/readyz"); resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("/readyz = %d while draining, want 503", resp.StatusCode)
	}
}
