package cluster

import "sync/atomic"

// BackendMetrics counts one backend's proxy traffic.
type BackendMetrics struct {
	Proxied  atomic.Int64 // exchanges answered by this backend
	Failures atomic.Int64 // exchanges this backend failed (network/5xx)
}

// Metrics is the coordinator's live instrumentation, rendered with the
// serve layer's Prometheus writer (serve.WriteMetric; stdlib only, no
// client library).
type Metrics struct {
	Requests      atomic.Int64 // client requests received
	BadRequests   atomic.Int64 // malformed requests (400 at the coordinator)
	Coalesced     atomic.Int64 // requests that shared a cluster-wide in-flight twin
	Shed          atomic.Int64 // requests refused by admission control (429)
	Proxied       atomic.Int64 // upstream exchanges performed
	Reroutes      atomic.Int64 // attempts moved to the next ring replica after a failure
	Upstream429   atomic.Int64 // upstream answers that were backpressure sheds
	UpstreamFails atomic.Int64 // exchanges no replica could answer

	perBackend map[string]*BackendMetrics // fixed at New; values are atomic
}

func newMetrics(backends []string) *Metrics {
	m := &Metrics{perBackend: map[string]*BackendMetrics{}}
	for _, b := range backends {
		m.perBackend[b] = &BackendMetrics{}
	}
	return m
}

// Backend returns the per-backend counters (never nil for a configured
// backend; a no-op sink for unknown names so callers need no checks).
func (m *Metrics) Backend(b string) *BackendMetrics {
	if bm, ok := m.perBackend[b]; ok {
		return bm
	}
	return &BackendMetrics{}
}
