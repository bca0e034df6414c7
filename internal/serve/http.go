package serve

import (
	"context"
	"encoding/json"
	"errors"
	"expvar"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"

	"specguard/internal/bench"
	"specguard/internal/buildinfo"
	"specguard/internal/explore"
	"specguard/internal/machine"
)

// Handler returns the service's HTTP surface:
//
//	POST /v1/run     experiment request (JSON body) → JSON result;
//	                 with ?stream=1 or Accept: application/x-ndjson,
//	                 progress events + result as NDJSON
//	GET  /v1/run     same via query params (workload, scheme, entries)
//	GET  /v1/sweep   the full table sweep (all workloads × schemes),
//	                 streamed as NDJSON in completion order
//	POST /v1/explore design-space sweep: an axis grid over the machine
//	                 model, streamed as NDJSON (one line per grid point,
//	                 then a Pareto/batching summary line)
//	GET  /healthz    liveness: 200 ok / 503 draining
//	GET  /readyz     readiness: 200 only after MarkReady and before
//	                 drain — the probe a cluster coordinator routes on
//	GET  /metrics    Prometheus text exposition
//	GET  /version    build metadata
//	GET  /debug/vars expvar (Go runtime internals) plus the service's
//	                 store hit/miss counters
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/run", s.handleRun)
	mux.HandleFunc("/v1/sweep", s.handleSweep)
	mux.HandleFunc("/v1/explore", s.handleExplore)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/readyz", s.handleReadyz)
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/version", s.handleVersion)
	mux.HandleFunc("/debug/vars", s.handleDebugVars)
	return mux
}

// httpError is the uniform JSON error envelope.
func httpError(w http.ResponseWriter, code int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]string{"error": fmt.Sprintf(format, args...)})
}

// writeErr maps the service's typed errors onto status codes.
func writeErr(w http.ResponseWriter, err error) {
	var bad *ErrBadRequest
	var over *ErrOverloaded
	switch {
	case errors.As(err, &bad):
		httpError(w, http.StatusBadRequest, "%v", bad.Err)
	case errors.As(err, &over):
		// Round up: Retry-After is whole seconds, and truncating a
		// sub-second backoff to "0" tells well-behaved clients to hammer
		// the queue that just shed them.
		secs := int64((over.RetryAfter + time.Second - 1) / time.Second)
		if secs < 1 {
			secs = 1
		}
		w.Header().Set("Retry-After", strconv.FormatInt(secs, 10))
		httpError(w, http.StatusTooManyRequests, "%v", over)
	case errors.Is(err, ErrDraining):
		w.Header().Set("Retry-After", "10")
		httpError(w, http.StatusServiceUnavailable, "%v", err)
	case errors.Is(err, context.DeadlineExceeded):
		httpError(w, http.StatusGatewayTimeout, "simulation timed out: %v", err)
	default:
		httpError(w, http.StatusInternalServerError, "%v", err)
	}
}

// ParseRunRequest decodes a request from a JSON body (POST) or query
// parameters (GET). Exported because the cluster coordinator speaks
// the same wire surface: it parses a client request with this, derives
// its shard key with NormalizeRequest, and forwards the normalized
// form.
func ParseRunRequest(r *http.Request) (RunRequest, error) {
	var req RunRequest
	switch r.Method {
	case http.MethodPost:
		dec := json.NewDecoder(http.MaxBytesReader(nil, r.Body, 1<<20))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&req); err != nil {
			return req, &ErrBadRequest{fmt.Errorf("decoding request body: %w", err)}
		}
	case http.MethodGet:
		q := r.URL.Query()
		req.Workload = q.Get("workload")
		req.Scheme = q.Get("scheme")
		for _, f := range []struct {
			name string
			dst  *int64
		}{
			{"timeout_ms", &req.TimeoutMS},
			{"delay_ms", &req.DelayMS},
		} {
			if v := q.Get(f.name); v != "" {
				n, err := strconv.ParseInt(v, 10, 64)
				if err != nil {
					return req, &ErrBadRequest{fmt.Errorf("bad %s: %w", f.name, err)}
				}
				*f.dst = n
			}
		}
		if v := q.Get("entries"); v != "" {
			n, err := strconv.Atoi(v)
			if err != nil {
				return req, &ErrBadRequest{fmt.Errorf("bad entries: %w", err)}
			}
			req.PredictorEntries = n
		}
	default:
		return req, &ErrBadRequest{fmt.Errorf("method %s not allowed", r.Method)}
	}
	return req, nil
}

// wantsStream reports whether the client asked for NDJSON progress.
func wantsStream(r *http.Request) bool {
	if r.URL.Query().Get("stream") == "1" {
		return true
	}
	return strings.Contains(r.Header.Get("Accept"), "application/x-ndjson")
}

func (s *Service) handleRun(w http.ResponseWriter, r *http.Request) {
	req, err := ParseRunRequest(r)
	if err != nil {
		s.metrics.Requests.Add(1)
		s.metrics.BadRequests.Add(1)
		writeErr(w, err)
		return
	}
	if wantsStream(r) {
		s.streamRun(w, r, req)
		return
	}
	res, err := s.Do(r.Context(), req, nil)
	if err != nil {
		writeErr(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(res)
}

// streamEvent is one NDJSON progress line.
type streamEvent struct {
	Event  string       `json:"event"`
	Error  string       `json:"error,omitempty"`
	Result *RunResponse `json:"result,omitempty"`
	// Explore payloads: Point on per-grid-point lines, Report on the
	// terminal summary line.
	Point  *explore.Point  `json:"point,omitempty"`
	Report *exploreSummary `json:"report,omitempty"`
}

// ndjson writes one event line and flushes it to the client so
// progress is observable while the simulation runs.
func ndjson(w http.ResponseWriter, ev streamEvent) {
	json.NewEncoder(w).Encode(ev)
	if f, ok := w.(http.Flusher); ok {
		f.Flush()
	}
}

func (s *Service) streamRun(w http.ResponseWriter, r *http.Request, req RunRequest) {
	w.Header().Set("Content-Type", "application/x-ndjson")
	res, err := s.Do(r.Context(), req, func(stage string) {
		ndjson(w, streamEvent{Event: stage})
	})
	if err != nil {
		ndjson(w, streamEvent{Event: "error", Error: err.Error()})
		return
	}
	ndjson(w, streamEvent{Event: StageResult, Result: res})
}

// handleSweep streams the paper's full table — every workload under
// every scheme — as NDJSON, one result line per simulation. Every cell
// not answered by the store or an in-flight twin joins ONE pool job
// whose batched simulation drains each distinct (workload, program)
// trace once for all of its cells; all cells go through the same store
// → coalesce → pool path, so a repeated sweep is served from disk and a
// concurrent one coalesces. Backpressure sheds are retried until the
// client gives up (the sweep holds no queue slots while backing off).
// An invalid entries value is a 400 before any line is written.
func (s *Service) handleSweep(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet && r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, "method %s not allowed", r.Method)
		return
	}
	var entries int
	var err error
	if v := r.URL.Query().Get("entries"); v != "" {
		if entries, err = strconv.Atoi(v); err != nil {
			err = &ErrBadRequest{fmt.Errorf("bad entries: %w", err)}
		} else {
			err = CheckEntries(entries)
		}
	}
	if err != nil {
		s.metrics.Requests.Add(1)
		s.metrics.BadRequests.Add(1)
		writeErr(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")

	var reqs []RunRequest
	for _, wl := range bench.All() {
		for _, scheme := range []bench.Scheme{bench.SchemeTwoBit, bench.SchemeProposed, bench.SchemePerfect} {
			reqs = append(reqs, RunRequest{Workload: wl.Name, Scheme: scheme.String(), PredictorEntries: entries})
		}
	}

	for {
		cells, err := s.DoSweep(r.Context(), reqs)
		var over *ErrOverloaded
		if errors.As(err, &over) {
			select {
			case <-time.After(200 * time.Millisecond):
				continue
			case <-r.Context().Done():
				ndjson(w, streamEvent{Event: "error", Error: r.Context().Err().Error()})
				return
			}
		}
		for _, c := range cells {
			if c.Err != nil {
				ndjson(w, streamEvent{Event: "error", Error: c.Err.Error()})
				continue
			}
			ndjson(w, streamEvent{Event: StageResult, Result: c.Res})
		}
		return
	}
}

// ExploreRequest is the JSON surface of /v1/explore: the axis grid to
// expand over the service's base machine model, the workloads to time
// each point on, and the scheme to run.
type ExploreRequest struct {
	// Axes expand into the cartesian grid (machine.AxisNames lists the
	// valid names; the "predictor" axis takes int(machine.PredKind)).
	Axes []machine.Axis `json:"axes"`
	// Workloads defaults to the full registry when empty.
	Workloads []string `json:"workloads,omitempty"`
	// Scheme accepts the same spellings as /v1/run; default 2-bitBP.
	Scheme string `json:"scheme,omitempty"`
	// MaxPoints tightens (never widens past the server's default) the
	// grid-size guard.
	MaxPoints int `json:"max_points,omitempty"`
}

// exploreSummary is the terminal /v1/explore line: the report without
// its per-point bodies, which were already streamed one line each.
type exploreSummary struct {
	Scheme        string   `json:"scheme"`
	Workloads     []string `json:"workloads"`
	Points        int      `json:"points"`
	Frontier      []int    `json:"frontier"`
	Cells         int      `json:"cells"`
	TraceDrains   int64    `json:"trace_drains"`
	SimLanes      int64    `json:"sim_lanes"`
	ArchRuns      int64    `json:"arch_runs"`
	LanesPerDrain float64  `json:"lanes_per_drain"`
}

// handleExplore runs a design-space sweep and streams the result as
// NDJSON: one "point" line per grid cell (coordinates, cost, IPC,
// Pareto flag, per-workload stats) and a final "report" line with the
// frontier indices and the drain/lane accounting. The whole grid is one
// worker-pool job (DoExplore); backpressure sheds are retried until the
// client gives up, like /v1/sweep. Errors before the first line carry
// real status codes — a malformed grid is a 400, not a 200 with an
// error event.
func (s *Service) handleExplore(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, "method %s not allowed", r.Method)
		return
	}
	var hreq ExploreRequest
	dec := json.NewDecoder(http.MaxBytesReader(nil, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&hreq); err != nil {
		s.metrics.Requests.Add(1)
		s.metrics.BadRequests.Add(1)
		writeErr(w, &ErrBadRequest{fmt.Errorf("decoding request body: %w", err)})
		return
	}
	req := explore.Request{Axes: hreq.Axes, MaxPoints: hreq.MaxPoints}
	if req.MaxPoints <= 0 || req.MaxPoints > explore.DefaultMaxPoints {
		req.MaxPoints = explore.DefaultMaxPoints
	}
	if hreq.Scheme != "" {
		scheme, err := ParseScheme(hreq.Scheme)
		if err != nil {
			s.metrics.Requests.Add(1)
			s.metrics.BadRequests.Add(1)
			writeErr(w, &ErrBadRequest{err})
			return
		}
		req.Scheme = scheme
	}
	for _, name := range hreq.Workloads {
		wl, err := bench.ByName(name)
		if err != nil {
			s.metrics.Requests.Add(1)
			s.metrics.BadRequests.Add(1)
			writeErr(w, &ErrBadRequest{err})
			return
		}
		req.Workloads = append(req.Workloads, wl)
	}

	for {
		rep, err := s.DoExplore(r.Context(), req)
		var over *ErrOverloaded
		if errors.As(err, &over) {
			select {
			case <-time.After(200 * time.Millisecond):
				continue
			case <-r.Context().Done():
				writeErr(w, over)
				return
			}
		}
		if err != nil {
			writeErr(w, err)
			return
		}
		w.Header().Set("Content-Type", "application/x-ndjson")
		for i := range rep.Points {
			ndjson(w, streamEvent{Event: "point", Point: &rep.Points[i]})
		}
		ndjson(w, streamEvent{Event: "report", Report: &exploreSummary{
			Scheme:        rep.Scheme,
			Workloads:     rep.Workloads,
			Points:        len(rep.Points),
			Frontier:      rep.Frontier,
			Cells:         rep.Cells,
			TraceDrains:   rep.TraceDrains,
			SimLanes:      rep.SimLanes,
			ArchRuns:      rep.ArchRuns,
			LanesPerDrain: rep.LanesPerDrain,
		}})
		return
	}
}

func (s *Service) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.Draining() {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	fmt.Fprintln(w, "ok")
}

// handleReadyz is the readiness probe: distinct from liveness because a
// process can be alive but unable to take traffic — still booting
// (store/pool not initialized, listener not bound) or draining. The
// cluster coordinator health-checks this endpoint, not /healthz.
func (s *Service) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if !s.Ready() {
		http.Error(w, "not ready", http.StatusServiceUnavailable)
		return
	}
	fmt.Fprintln(w, "ready")
}

// handleDebugVars renders the standard expvar JSON (cmdline, memstats,
// anything else published globally) extended with this service's store
// hit/miss counters, so per-shard cache effectiveness is visible on the
// debug surface without a Prometheus scraper. Hand-rendered instead of
// expvar.Publish: Publish is process-global and panics on duplicate
// names, which breaks every test that builds more than one Service.
func (s *Service) handleDebugVars(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	fmt.Fprintf(w, "{\n")
	fmt.Fprintf(w, "%q: %d,\n", "sgserved_store_hits_total", s.metrics.StoreHits.Load())
	fmt.Fprintf(w, "%q: %d", "sgserved_store_misses_total", s.metrics.StoreMisses.Load())
	expvar.Do(func(kv expvar.KeyValue) {
		fmt.Fprintf(w, ",\n%q: %s", kv.Key, kv.Value)
	})
	fmt.Fprintf(w, "\n}\n")
}

func (s *Service) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	s.metrics.WritePrometheus(w, RunnerStats{
		ArchRuns:    s.runner.ArchRuns(),
		TraceDrains: s.runner.TraceDrains(),
		SimLanes:    s.runner.SimLanes(),
	})
}

func (s *Service) handleVersion(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(map[string]string{"version": buildinfo.Version("sgserved")})
}
