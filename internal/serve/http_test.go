package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func newTestServer(t *testing.T, mutate func(*Config)) (*Service, *httptest.Server) {
	t.Helper()
	s := newTestService(t, mutate)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func postRun(t *testing.T, url string, req RunRequest) (*http.Response, []byte) {
	t.Helper()
	body, _ := json.Marshal(req)
	resp, err := http.Post(url+"/v1/run", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

func TestHTTPRunAndMetrics(t *testing.T) {
	_, ts := newTestServer(t, nil)

	resp, data := postRun(t, ts.URL, RunRequest{Workload: "grep", Scheme: "2bit"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /v1/run = %d: %s", resp.StatusCode, data)
	}
	var rr RunResponse
	if err := json.Unmarshal(data, &rr); err != nil {
		t.Fatalf("decoding response: %v", err)
	}
	if rr.Source != "sim" || rr.Stats.Cycles == 0 || rr.IPC == 0 {
		t.Errorf("implausible response: source=%s cycles=%d ipc=%g", rr.Source, rr.Stats.Cycles, rr.IPC)
	}

	// Same request again: served from the store.
	resp, data = postRun(t, ts.URL, RunRequest{Workload: "grep", Scheme: "2bit"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("second POST = %d", resp.StatusCode)
	}
	json.Unmarshal(data, &rr)
	if rr.Source != "store" {
		t.Errorf("repeat source = %q, want store", rr.Source)
	}

	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mdata, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	metrics := string(mdata)
	for _, line := range []string{
		"sgserved_requests_total 2",
		"sgserved_store_hits_total 1",
		"sgserved_sim_runs_total 1",
		"sgserved_arch_runs_total 1",
		"sgserved_sim_seconds_bucket{le=\"+Inf\"} 1",
	} {
		if !strings.Contains(metrics, line) {
			t.Errorf("/metrics missing %q\n%s", line, metrics)
		}
	}
}

func TestHTTPGetRun(t *testing.T) {
	_, ts := newTestServer(t, nil)
	resp, err := http.Get(ts.URL + "/v1/run?workload=grep&scheme=perfect&entries=8")
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/run = %d: %s", resp.StatusCode, data)
	}
	var rr RunResponse
	json.Unmarshal(data, &rr)
	if rr.Scheme != "PerfectBP" || rr.PredictorEntries != 8 {
		t.Errorf("normalized response: %+v", rr)
	}
}

func TestHTTPBadRequest(t *testing.T) {
	_, ts := newTestServer(t, nil)
	resp, data := postRun(t, ts.URL, RunRequest{Workload: "no-such", Scheme: "2bit"})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad workload = %d: %s", resp.StatusCode, data)
	}
	var e map[string]string
	if err := json.Unmarshal(data, &e); err != nil || e["error"] == "" {
		t.Errorf("error envelope missing: %s", data)
	}

	resp2, err := http.Post(ts.URL+"/v1/run", "application/json", strings.NewReader(`{"workload": "grep", "nope": 1}`))
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown field = %d, want 400", resp2.StatusCode)
	}
}

// TestHTTPStream: NDJSON mode emits a stage event then the result: a
// first request is queued, its repeat a store hit.
func TestHTTPStream(t *testing.T) {
	_, ts := newTestServer(t, nil)
	body, _ := json.Marshal(RunRequest{Workload: "grep", Scheme: "2bit"})
	for _, stage := range []string{StageQueued, StageStore} {
		resp, err := http.Post(ts.URL+"/v1/run?stream=1", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
			t.Errorf("Content-Type = %q", ct)
		}
		var events []streamEvent
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 1<<20), 1<<20)
		for sc.Scan() {
			var ev streamEvent
			if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
				t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
			}
			events = append(events, ev)
		}
		resp.Body.Close()
		if len(events) != 2 {
			t.Fatalf("got %d events, want 2 (stage + result): %+v", len(events), events)
		}
		if events[0].Event != stage {
			t.Errorf("first event = %q, want %q", events[0].Event, stage)
		}
		if events[1].Event != StageResult || events[1].Result == nil || events[1].Result.Stats.Cycles == 0 {
			t.Errorf("terminal event malformed: %+v", events[1])
		}
	}
}

// TestHTTPSweep: the sweep endpoint streams all 12 cells, and a repeat
// sweep is answered entirely from the store with no new machines.
func TestHTTPSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("full sweep in -short mode")
	}
	s, ts := newTestServer(t, nil)
	sweep := func() []streamEvent {
		resp, err := http.Get(ts.URL + "/v1/sweep")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var events []streamEvent
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 1<<20), 1<<20)
		for sc.Scan() {
			var ev streamEvent
			if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
				t.Fatalf("bad sweep line: %v", err)
			}
			events = append(events, ev)
		}
		return events
	}

	first := sweep()
	if len(first) != 12 {
		t.Fatalf("sweep returned %d lines, want 12", len(first))
	}
	for _, ev := range first {
		if ev.Event != StageResult {
			t.Fatalf("sweep cell failed: %+v", ev)
		}
	}
	captures := s.runner.ArchRuns()
	if captures != 8 {
		t.Errorf("sweep ArchRuns = %d, want 8 (2 per workload)", captures)
	}
	// The batched default simulates all 12 cells with one drain per
	// distinct (workload, program): base + optimized per workload.
	if got := s.runner.TraceDrains(); got != 8 {
		t.Errorf("sweep TraceDrains = %d, want 8", got)
	}
	if got := s.runner.SimLanes(); got != 12 {
		t.Errorf("sweep SimLanes = %d, want 12", got)
	}

	second := sweep()
	for _, ev := range second {
		if ev.Result == nil || ev.Result.Source != "store" {
			t.Errorf("repeat sweep cell not from store: %+v", ev)
		}
	}
	if got := s.runner.ArchRuns(); got != captures {
		t.Errorf("repeat sweep built machines: %d → %d", captures, got)
	}
	if got := s.runner.TraceDrains(); got != 8 {
		t.Errorf("repeat sweep added drains: %d, want 8", got)
	}

	// /metrics exposes the batching counters and their ratio.
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mdata, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, line := range []string{
		"sgserved_trace_drains_total 8",
		"sgserved_sim_lanes_total 12",
		"sgserved_lanes_per_drain 1.5",
	} {
		if !strings.Contains(string(mdata), line) {
			t.Errorf("/metrics missing %q", line)
		}
	}
}

// TestHTTPSweepEntriesValidation: /v1/sweep bounds entries exactly as
// /v1/run does, answering 400 before any simulation or NDJSON line;
// entries=0 (the model's size) and a valid size stream all 12 cells.
func TestHTTPSweepEntriesValidation(t *testing.T) {
	s, ts := newTestServer(t, nil)
	for _, v := range []string{"-1", "16777217", "99999999999"} {
		resp, err := http.Get(ts.URL + "/v1/sweep?entries=" + v)
		if err != nil {
			t.Fatal(err)
		}
		data, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		var e map[string]string
		if resp.StatusCode != http.StatusBadRequest || json.Unmarshal(data, &e) != nil || !strings.Contains(e["error"], "predictor_entries") {
			t.Errorf("GET /v1/sweep?entries=%s = %d %s, want 400 naming predictor_entries", v, resp.StatusCode, data)
		}
	}
	if runs, drains := s.runner.ArchRuns(), s.runner.TraceDrains(); runs != 0 || drains != 0 {
		t.Errorf("rejected sweeps built %d machines and ran %d drains, want none", runs, drains)
	}
	if got := s.metrics.BadRequests.Load(); got != 3 {
		t.Errorf("bad_requests = %d, want 3", got)
	}
	if testing.Short() {
		t.Skip("full sweeps in -short mode")
	}
	for _, v := range []string{"0", "256"} {
		resp, err := http.Get(ts.URL + "/v1/sweep?entries=" + v)
		if err != nil {
			t.Fatal(err)
		}
		lines := 0
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 1<<20), 1<<20)
		for sc.Scan() {
			var ev streamEvent
			if err := json.Unmarshal(sc.Bytes(), &ev); err != nil || ev.Event != StageResult {
				t.Fatalf("entries=%s: sweep line %q is not a result", v, sc.Bytes())
			}
			lines++
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || lines != 12 {
			t.Errorf("entries=%s: status %d with %d results, want 200 with 12", v, resp.StatusCode, lines)
		}
	}
}

func TestHTTPHealthzAndDrain(t *testing.T) {
	s, ts := newTestServer(t, nil)
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/healthz = %d", resp.StatusCode)
	}

	s.BeginDrain()
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("/healthz while draining = %d, want 503", resp.StatusCode)
	}
	r2, data := postRun(t, ts.URL, RunRequest{Workload: "grep", Scheme: "2bit"})
	if r2.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("/v1/run while draining = %d, want 503: %s", r2.StatusCode, data)
	}
	if r2.Header.Get("Retry-After") == "" {
		t.Error("503 without Retry-After")
	}
}

// TestHTTPBackpressureHeaders: a saturated pool answers 429 with a
// Retry-After hint.
func TestHTTPBackpressureHeaders(t *testing.T) {
	s, ts := newTestServer(t, func(c *Config) {
		c.Workers = 1
		c.QueueDepth = 1
	})
	wg := holdPool(t, s, 2000, func(req RunRequest) { postRun(t, ts.URL, req) })
	defer wg.Wait()

	resp, data := postRun(t, ts.URL, RunRequest{Workload: "grep", Scheme: "proposed"})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated POST = %d: %s", resp.StatusCode, data)
	}
	// 1 worker, 1 queued job → (1 + 1/1) s. Exact, not just non-empty:
	// the header used to truncate instead of round.
	if got := resp.Header.Get("Retry-After"); got != "2" {
		t.Errorf("429 Retry-After = %q, want \"2\"", got)
	}
}

// TestRetryAfterRoundsUp: sub-second backoffs must not truncate to
// "0", which tells well-behaved clients to retry immediately.
func TestRetryAfterRoundsUp(t *testing.T) {
	for _, tc := range []struct {
		d    time.Duration
		want string
	}{
		{300 * time.Millisecond, "1"},
		{time.Second, "1"},
		{1500 * time.Millisecond, "2"},
		{2 * time.Second, "2"},
	} {
		rec := httptest.NewRecorder()
		writeErr(rec, &ErrOverloaded{RetryAfter: tc.d})
		if got := rec.Header().Get("Retry-After"); got != tc.want {
			t.Errorf("Retry-After(%v) = %q, want %q", tc.d, got, tc.want)
		}
	}
}

// TestHTTPEntriesValidation: the predictor table size is allocated per
// request, so the service must bound it — negative and absurd values
// are 400s with a message naming the field, not an OOM.
func TestHTTPEntriesValidation(t *testing.T) {
	_, ts := newTestServer(t, nil)
	for _, tc := range []struct {
		url  string
		want string
	}{
		{"/v1/run?workload=grep&scheme=2bit&entries=-1", "predictor_entries"},
		{"/v1/run?workload=grep&scheme=2bit&entries=16777217", "predictor_entries"},
		{"/v1/run?workload=grep&scheme=2bit&entries=99999999999", "predictor_entries"},
		{"/v1/run?workload=grep&scheme=2bit&entries=banana", "bad entries"},
	} {
		resp, err := http.Get(ts.URL + tc.url)
		if err != nil {
			t.Fatal(err)
		}
		data, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("GET %s = %d, want 400: %s", tc.url, resp.StatusCode, data)
			continue
		}
		var e map[string]string
		if err := json.Unmarshal(data, &e); err != nil || !strings.Contains(e["error"], tc.want) {
			t.Errorf("GET %s error %q does not name %q", tc.url, e["error"], tc.want)
		}
	}
	// The cap itself is legal.
	resp, data := postRun(t, ts.URL, RunRequest{Workload: "grep", Scheme: "2bit", PredictorEntries: 1 << 24, TimeoutMS: 60000})
	if resp.StatusCode != http.StatusOK {
		t.Errorf("entries at cap = %d: %s", resp.StatusCode, data)
	}
}

// TestHTTPMachineOverride: per-request machine models derive from the
// service base via Clone+Validate, get their own store identity (the
// |m= key segment), and invalid combinations are 400s.
func TestHTTPMachineOverride(t *testing.T) {
	_, ts := newTestServer(t, nil)

	resp, data := postRun(t, ts.URL, RunRequest{
		Workload: "grep", Scheme: "2bit",
		Machine:   map[string]int{"fetch_width": 2, "active_list": 16},
		Predictor: "gshare",
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("machine override POST = %d: %s", resp.StatusCode, data)
	}
	var narrow RunResponse
	if err := json.Unmarshal(data, &narrow); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(narrow.Canonical, "|m=") {
		t.Errorf("derived-model canonical %q missing |m= segment", narrow.Canonical)
	}

	resp, data = postRun(t, ts.URL, RunRequest{Workload: "grep", Scheme: "2bit"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("default POST = %d: %s", resp.StatusCode, data)
	}
	var def RunResponse
	json.Unmarshal(data, &def)
	if strings.Contains(def.Canonical, "|m=") {
		t.Errorf("default-model canonical %q grew a |m= segment (store back-compat)", def.Canonical)
	}
	if def.Key == narrow.Key {
		t.Error("derived model shares the default model's store key")
	}
	if def.Stats.Cycles >= narrow.Stats.Cycles {
		t.Errorf("half-width machine not slower: default %d cycles, narrow %d", def.Stats.Cycles, narrow.Stats.Cycles)
	}

	// Same override again: a store hit under the model-specific key.
	resp, data = postRun(t, ts.URL, RunRequest{
		Workload: "grep", Scheme: "2bit",
		Machine:   map[string]int{"active_list": 16, "fetch_width": 2},
		Predictor: "gshare",
	})
	var again RunResponse
	json.Unmarshal(data, &again)
	if again.Source != "store" || again.Key != narrow.Key {
		t.Errorf("repeat override: source=%q key match=%t", again.Source, again.Key == narrow.Key)
	}

	for _, bad := range []RunRequest{
		{Workload: "grep", Scheme: "2bit", Machine: map[string]int{"warp_factor": 9}},
		{Workload: "grep", Scheme: "2bit", Machine: map[string]int{"fetch_width": 0}},
		{Workload: "grep", Scheme: "2bit", Predictor: "neural"},
		{Workload: "grep", Scheme: "2bit", Predictor: "gshare", PredictorEntries: 100},
	} {
		resp, data := postRun(t, ts.URL, bad)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("bad override %+v = %d, want 400: %s", bad.Machine, resp.StatusCode, data)
		}
	}
}

// TestHTTPExplore: a small grid through /v1/explore streams one NDJSON
// line per point plus a summary whose drain accounting proves the
// geometry-grouped batching, and malformed grids are 400s.
func TestHTTPExplore(t *testing.T) {
	_, ts := newTestServer(t, nil)
	body := `{"axes":[{"name":"fetch_width","values":[2,4]},{"name":"entries","values":[256,512]}],"workloads":["grep"],"scheme":"2bit"}`
	resp, err := http.Post(ts.URL+"/v1/explore", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		data, _ := io.ReadAll(resp.Body)
		t.Fatalf("POST /v1/explore = %d: %s", resp.StatusCode, data)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("Content-Type = %q", ct)
	}
	var points, reports int
	var sum *exploreSummary
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var ev streamEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		switch ev.Event {
		case "point":
			points++
			if ev.Point == nil || ev.Point.IPC <= 0 || len(ev.Point.Coords) != 2 {
				t.Errorf("malformed point: %+v", ev.Point)
			}
		case "report":
			reports++
			sum = ev.Report
		default:
			t.Errorf("unexpected event %q", ev.Event)
		}
	}
	if points != 4 || reports != 1 {
		t.Fatalf("got %d points / %d reports, want 4 / 1", points, reports)
	}
	if len(sum.Frontier) == 0 {
		t.Error("empty Pareto frontier")
	}
	if sum.Cells != 4 || sum.TraceDrains >= int64(sum.Cells) || sum.LanesPerDrain < 1 {
		t.Errorf("batching accounting: cells=%d drains=%d lanes/drain=%g", sum.Cells, sum.TraceDrains, sum.LanesPerDrain)
	}

	for _, bad := range []string{
		`{"axes":[{"name":"warp_factor","values":[9]}]}`,
		`{"axes":[{"name":"fetch_width","values":[0]}]}`,
		`{"axes":[{"name":"fetch_width","values":[2]}],"scheme":"nope"}`,
		`{"axes":[{"name":"fetch_width","values":[2]}],"workloads":["no-such"]}`,
		`{"axes":[{"name":"entries","values":[1,2,4,8,16,32,64,128,256]},{"name":"active_list","values":[32,33,34,35,36,37,38,39]},{"name":"int_queue","values":[16,17,18,19,20,21,22,23]},{"name":"fp_queue","values":[16,17,18,19,20,21,22,23]}]}`,
	} {
		resp, err := http.Post(ts.URL+"/v1/explore", "application/json", strings.NewReader(bad))
		if err != nil {
			t.Fatal(err)
		}
		data, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("bad explore body %s = %d, want 400: %s", bad, resp.StatusCode, data)
		}
	}
}

// oversized lists machine overrides past their axis bounds, each of
// which would size a lane's state: a ROB of 2^30 entries alone is over
// 100 GiB.
var oversized = []struct {
	axis  string
	value int
}{
	{"fetch_width", 1 << 20},
	{"int_queue", 1 << 40},
	{"branch_stack", 1 << 40},
	{"active_list", 1 << 30},
	{"rename_regs", 1 << 40},
	{"icache_bytes", 1 << 40},
	{"dcache_bytes", 1 << 40},
	{"line_bytes", 1 << 40},
	{"miss_penalty", 1 << 40},
	{"mispredict_penalty", 1 << 40},
}

// TestHTTPOversizedMachineRejected: a machine override past its axis
// bound is a 400 naming the axis on /v1/run and on /v1/explore, decided
// before admission. The one worker is busy and the one queue slot taken,
// so a request that reached the pool would be shed with 429 instead.
func TestHTTPOversizedMachineRejected(t *testing.T) {
	s, ts := newTestServer(t, func(c *Config) {
		c.Workers = 1
		c.QueueDepth = 1
	})
	wg := holdPool(t, s, 5000, func(req RunRequest) { postRun(t, ts.URL, req) })

	for _, o := range oversized {
		resp, data := postRun(t, ts.URL, RunRequest{Workload: "grep", Scheme: "2bit", Machine: map[string]int{o.axis: o.value}})
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(data), o.axis) {
			t.Errorf("/v1/run with %s=%d = %d, want 400 naming the axis: %s", o.axis, o.value, resp.StatusCode, data)
		}
		body := fmt.Sprintf(`{"axes":[{"name":%q,"values":[%d]}],"workloads":["grep"]}`, o.axis, o.value)
		eresp, err := http.Post(ts.URL+"/v1/explore", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		data, _ = io.ReadAll(eresp.Body)
		eresp.Body.Close()
		if eresp.StatusCode != http.StatusBadRequest || !strings.Contains(string(data), o.axis) {
			t.Errorf("/v1/explore with %s=%d = %d, want 400 naming the axis: %s", o.axis, o.value, eresp.StatusCode, data)
		}
	}
	if got, want := s.metrics.BadRequests.Load(), int64(2*len(oversized)); got != want {
		t.Errorf("BadRequests = %d, want %d", got, want)
	}
	if got := s.metrics.Rejected.Load(); got != 0 {
		t.Errorf("Rejected = %d, want 0: an oversized request reached the queue check", got)
	}
	if in, q := s.metrics.InFlight.Load(), s.metrics.QueueDepth.Load(); in != 1 || q != 1 {
		t.Errorf("pool holds %d running and %d queued jobs, want the two held ones", in, q)
	}

	// Cancel the held jobs rather than wait out their delay.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	s.Drain(ctx)
	wg.Wait()
}

func waitUntil(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition never reached")
		}
		time.Sleep(5 * time.Millisecond)
	}
}
