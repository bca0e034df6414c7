package cluster

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"expvar"
	"fmt"
	"io"
	"net"
	"net/http"

	"specguard/internal/buildinfo"
	"specguard/internal/serve"
)

// Handler returns the coordinator's HTTP surface — wire-compatible
// with sgserved for the /v1 endpoints, so clients and the load
// generator target either interchangeably:
//
//	POST/GET /v1/run  proxied to the key's shard (cluster singleflight,
//	                  replica retry, interactive admission class)
//	GET  /v1/sweep    the full table sweep fanned out per shard, NDJSON
//	POST /v1/explore  proxied whole to a deterministic shard, NDJSON
//	GET  /healthz     coordinator liveness
//	GET  /readyz      coordinator readiness (503 when draining or no
//	                  backend is healthy)
//	GET  /cluster/state  ring membership, health, shares, admission
//	GET  /cluster/shard  placement of one request (no execution)
//	GET  /metrics     Prometheus text exposition
//	GET  /version     build metadata
//	GET  /debug/vars  expvar
func (c *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/run", c.handleRun)
	mux.HandleFunc("/v1/sweep", c.handleSweep)
	mux.HandleFunc("/v1/explore", c.handleExplore)
	mux.HandleFunc("/healthz", c.handleHealthz)
	mux.HandleFunc("/readyz", c.handleReadyz)
	mux.HandleFunc("/cluster/state", c.handleState)
	mux.HandleFunc("/cluster/shard", c.handleShard)
	mux.HandleFunc("/metrics", c.handleMetrics)
	mux.HandleFunc("/version", c.handleVersion)
	mux.Handle("/debug/vars", expvar.Handler())
	return mux
}

// ClientID derives the fair-share accounting identity from the
// request's credential: the API key or Authorization token when
// present (hashed — the identity is logged and exported, the secret
// must not be), else the peer address, so unauthenticated clients are
// at least separated per host.
func ClientID(r *http.Request) string {
	if v := r.Header.Get("X-API-Key"); v != "" {
		return "key:" + shortHash(v)
	}
	if v := r.Header.Get("Authorization"); v != "" {
		return "auth:" + shortHash(v)
	}
	if host, _, err := net.SplitHostPort(r.RemoteAddr); err == nil && host != "" {
		return "ip:" + host
	}
	return "anon"
}

func shortHash(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:4])
}

// writeErr maps coordinator errors onto status codes.
func (c *Coordinator) writeErr(w http.ResponseWriter, err error) {
	var bad *serve.ErrBadRequest
	var shed *ErrShed
	switch {
	case errors.As(err, &bad):
		c.metrics.BadRequests.Add(1)
		serve.HTTPError(w, http.StatusBadRequest, "%v", bad.Err)
	case errors.As(err, &shed):
		c.metrics.Shed.Add(1)
		serve.SetRetryAfter(w, shed.RetryAfter)
		serve.HTTPError(w, http.StatusTooManyRequests, "%v", err)
	case errors.Is(err, context.DeadlineExceeded):
		serve.HTTPError(w, http.StatusGatewayTimeout, "%v", err)
	default:
		serve.HTTPError(w, http.StatusBadGateway, "%v", err)
	}
}

// writeUpstream relays a buffered backend response, annotated with the
// answering backend and whether this caller coalesced onto another's
// exchange.
func writeUpstream(w http.ResponseWriter, up *Upstream, shared bool) {
	if up.ContentType != "" {
		w.Header().Set("Content-Type", up.ContentType)
	}
	if up.RetryAfter != "" {
		w.Header().Set("Retry-After", up.RetryAfter)
	}
	if up.Backend != "" {
		w.Header().Set("X-SG-Backend", up.Backend)
	}
	if shared {
		w.Header().Set("X-SG-Cluster-Coalesced", "1")
	}
	w.WriteHeader(up.Status)
	w.Write(up.Body)
}

// refuseDraining counts a request and, while the coordinator drains,
// answers it 503 with Retry-After: 10 and reports true.
func (c *Coordinator) refuseDraining(w http.ResponseWriter) bool {
	c.metrics.Requests.Add(1)
	if !c.Draining() {
		return false
	}
	w.Header().Set("Retry-After", "10")
	serve.HTTPError(w, http.StatusServiceUnavailable, "coordinator is draining")
	return true
}

func (c *Coordinator) handleRun(w http.ResponseWriter, r *http.Request) {
	if c.refuseDraining(w) {
		return
	}
	req, err := serve.ParseRunRequest(r)
	if err != nil {
		c.writeErr(w, err)
		return
	}
	up, shared, err := c.DoRun(r.Context(), ClientID(r), req, false)
	if err != nil {
		c.writeErr(w, err)
		return
	}
	writeUpstream(w, up, shared)
}

// sweepEvent is one NDJSON line of the fanned-out sweep, shaped like
// the serve layer's streamEvent so sweep clients need not know whether
// a daemon or the coordinator answered.
type sweepEvent struct {
	Event  string          `json:"event"`
	Error  string          `json:"error,omitempty"`
	Result json.RawMessage `json:"result,omitempty"`
}

// handleSweep fans the full table sweep out per shard: each cell is
// normalized, coalesced cluster-wide, and proxied to its own backend,
// so the 12 cells run on all shards in parallel rather than on one.
// The whole sweep holds ONE batch admission slot — its cells don't
// take more, which is what keeps a sweeping client from monopolizing
// admission against interactive callers.
func (c *Coordinator) handleSweep(w http.ResponseWriter, r *http.Request) {
	if c.refuseDraining(w) {
		return
	}
	if r.Method != http.MethodGet && r.Method != http.MethodPost {
		serve.HTTPError(w, http.StatusMethodNotAllowed, "method %s not allowed", r.Method)
		return
	}
	reqs, err := serve.ParseSweepRequest(r)
	if err != nil {
		c.writeErr(w, err) // counts the bad request
		return
	}
	client := ClientID(r)
	release, err := c.AcquireBatch(r.Context(), client)
	if err != nil {
		c.writeErr(w, err)
		return
	}
	defer release()

	w.Header().Set("Content-Type", "application/x-ndjson")
	type cell struct {
		up  *Upstream
		err error
	}
	out := make(chan cell, len(reqs))
	for _, req := range reqs {
		go func(req serve.RunRequest) {
			up, _, err := c.DoRun(r.Context(), client, req, true)
			out <- cell{up, err}
		}(req)
	}
	enc := json.NewEncoder(w)
	flush := func() {
		if f, ok := w.(http.Flusher); ok {
			f.Flush()
		}
	}
	for range reqs {
		cl := <-out
		switch {
		case cl.err != nil:
			enc.Encode(sweepEvent{Event: "error", Error: cl.err.Error()})
		case cl.up.Status != http.StatusOK:
			enc.Encode(sweepEvent{Event: "error", Error: fmt.Sprintf("backend status %d: %s", cl.up.Status, cl.up.Body)})
		default:
			enc.Encode(sweepEvent{Event: "result", Result: json.RawMessage(cl.up.Body)})
		}
		flush()
	}
}

func (c *Coordinator) handleExplore(w http.ResponseWriter, r *http.Request) {
	if c.refuseDraining(w) {
		return
	}
	if r.Method != http.MethodPost {
		serve.HTTPError(w, http.StatusMethodNotAllowed, "method %s not allowed", r.Method)
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 1<<20))
	if err != nil {
		c.metrics.BadRequests.Add(1)
		serve.HTTPError(w, http.StatusBadRequest, "reading request body: %v", err)
		return
	}
	up, err := c.DoExplore(r.Context(), ClientID(r), body)
	if err != nil {
		c.writeErr(w, err)
		return
	}
	writeUpstream(w, up, false)
}

func (c *Coordinator) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if c.Draining() {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	fmt.Fprintln(w, "ok")
}

// handleReadyz: the coordinator is ready while it can place work
// somewhere — at least one backend healthy and not draining.
func (c *Coordinator) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if c.Draining() {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	if c.health.HealthyCount() == 0 {
		http.Error(w, "no healthy backend", http.StatusServiceUnavailable)
		return
	}
	fmt.Fprintln(w, "ready")
}

// clusterState is the /cluster/state document.
type clusterState struct {
	VNodes    int                `json:"vnodes"`
	Replicas  int                `json:"replicas"`
	Draining  bool               `json:"draining"`
	Backends  []BackendState     `json:"backends"`
	Shares    map[string]float64 `json:"shares"`
	Admission struct {
		Running int `json:"running"`
		Queued  int `json:"queued"`
	} `json:"admission"`
}

func (c *Coordinator) handleState(w http.ResponseWriter, r *http.Request) {
	st := clusterState{
		VNodes:   c.ring.VNodes(),
		Replicas: c.cfg.Replicas,
		Draining: c.Draining(),
		Backends: c.health.Snapshot(),
		Shares:   c.ring.Shares(4096),
	}
	st.Admission.Running = c.adm.Running()
	st.Admission.Queued = c.adm.Depth()
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(st)
}

// handleShard resolves where a request would land, without executing
// it — the smoke test diffs this across a coordinator restart to prove
// placement stability.
func (c *Coordinator) handleShard(w http.ResponseWriter, r *http.Request) {
	req, err := serve.ParseRunRequest(r)
	if err != nil {
		c.writeErr(w, err)
		return
	}
	info, err := c.Shard(req)
	if err != nil {
		c.writeErr(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(info)
}

// handleMetrics renders the coordinator's counters, the admission and
// drain gauges, and one labelled sample per backend (in ring order,
// which is sorted) of its proxy counters and health.
func (c *Coordinator) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	m := c.metrics
	draining := 0
	if c.Draining() {
		draining = 1
	}
	for _, f := range []struct {
		name, typ, help string
		value           any
	}{
		{"sgcoord_requests_total", "counter", "Client requests received (all endpoints).", m.Requests.Load()},
		{"sgcoord_bad_requests_total", "counter", "Requests rejected as malformed (400).", m.BadRequests.Load()},
		{"sgcoord_coalesced_total", "counter", "Requests that shared a cluster-wide in-flight twin instead of opening an upstream exchange.", m.Coalesced.Load()},
		{"sgcoord_shed_total", "counter", "Requests refused by coordinator admission control (429).", m.Shed.Load()},
		{"sgcoord_proxied_total", "counter", "Upstream exchanges performed.", m.Proxied.Load()},
		{"sgcoord_reroutes_total", "counter", "Attempts moved to the next ring replica after a backend failure.", m.Reroutes.Load()},
		{"sgcoord_upstream_429_total", "counter", "Upstream answers that were backend backpressure sheds.", m.Upstream429.Load()},
		{"sgcoord_upstream_failures_total", "counter", "Exchanges no replica could answer.", m.UpstreamFails.Load()},
		{"sgcoord_admission_queue_depth", "gauge", "Requests waiting for an admission slot.", c.adm.Depth()},
		{"sgcoord_admission_running", "gauge", "Admission slots currently held.", c.adm.Running()},
		{"sgcoord_draining", "gauge", "1 once graceful shutdown has begun.", draining},
	} {
		serve.WriteMetric(w, f.name, f.typ, f.help, serve.Sample{Value: f.value})
	}
	backends := c.ring.Backends()
	proxied := make([]serve.Sample, len(backends))
	failures := make([]serve.Sample, len(backends))
	healthy := make([]serve.Sample, len(backends))
	for i, b := range backends {
		label := fmt.Sprintf("{backend=%q}", b)
		bm := m.Backend(b)
		proxied[i] = serve.Sample{Suffix: label, Value: bm.Proxied.Load()}
		failures[i] = serve.Sample{Suffix: label, Value: bm.Failures.Load()}
		healthy[i] = serve.Sample{Suffix: label, Value: 0}
		if c.health.Healthy(b) {
			healthy[i].Value = 1
		}
	}
	serve.WriteMetric(w, "sgcoord_backend_proxied_total", "counter", "Exchanges answered per backend.", proxied...)
	serve.WriteMetric(w, "sgcoord_backend_failures_total", "counter", "Failed exchanges per backend.", failures...)
	serve.WriteMetric(w, "sgcoord_backend_healthy", "gauge", "Backend readiness as seen by the health checker.", healthy...)
}

func (c *Coordinator) handleVersion(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(map[string]string{"version": buildinfo.Version("sgcoord")})
}
