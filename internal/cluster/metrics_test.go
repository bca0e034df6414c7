package cluster

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestMetricsGolden pins sgcoord's whole /metrics body: every family's
// HELP, TYPE and samples, in order, with each family at a distinct
// non-zero value so a swapped or misformatted family shows. It covers a
// counter of 10^6 or more, held and queued admission slots, and two
// labelled backends, one of them ejected.
func TestMetricsGolden(t *testing.T) {
	fbs := []*fakeBackend{newFakeBackend(t), newFakeBackend(t)}
	sort.Slice(fbs, func(i, j int) bool { return fbs[i].ts.URL < fbs[j].ts.URL })
	live, dead := fbs[0].ts.URL, fbs[1].ts.URL
	fbs[1].ts.Close()
	c := newTestCoordinator(t, []string{live, dead}, func(cfg *Config) {
		cfg.Admission = AdmissionConfig{MaxConcurrent: 2, MaxQueue: 8}
	})
	ts := httptest.NewServer(c.Handler())
	t.Cleanup(ts.Close)
	deadline := time.Now().Add(5 * time.Second)
	for c.health.Healthy(dead) {
		if time.Now().After(deadline) {
			t.Fatal("closed backend never ejected")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Two admission slots held and three requests waiting for one.
	var held []func()
	for range 2 {
		release, err := c.adm.Acquire(context.Background(), "holder", false)
		if err != nil {
			t.Fatal(err)
		}
		held = append(held, release)
	}
	var wg sync.WaitGroup
	for range 3 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if release, err := c.adm.Acquire(context.Background(), "waiter", false); err == nil {
				release()
			}
		}()
	}
	for c.adm.Depth() != 3 {
		if time.Now().After(deadline) {
			t.Fatal("admission queue never reached 3 waiters")
		}
		time.Sleep(5 * time.Millisecond)
	}

	m := c.metrics
	m.Requests.Store(1234567)
	for v, x := range []interface{ Store(int64) }{
		&m.BadRequests, &m.Coalesced, &m.Shed, &m.Proxied, &m.Reroutes, &m.Upstream429, &m.UpstreamFails,
		&m.Backend(live).Proxied, &m.Backend(dead).Proxied, &m.Backend(live).Failures, &m.Backend(dead).Failures,
	} {
		x.Store(int64(21 + v))
	}
	c.BeginDrain()

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	body := strings.NewReplacer(`"`+live+`"`, `"http://backend-a"`, `"`+dead+`"`, `"http://backend-b"`).Replace(string(data))
	if body != goldenCoordMetrics {
		t.Errorf("/metrics body differs from the golden one\ngot:\n%s\nwant:\n%s", body, goldenCoordMetrics)
	}

	for _, release := range held {
		release()
	}
	wg.Wait()
}

const goldenCoordMetrics = `# HELP sgcoord_requests_total Client requests received (all endpoints).
# TYPE sgcoord_requests_total counter
sgcoord_requests_total 1234567
# HELP sgcoord_bad_requests_total Requests rejected as malformed (400).
# TYPE sgcoord_bad_requests_total counter
sgcoord_bad_requests_total 21
# HELP sgcoord_coalesced_total Requests that shared a cluster-wide in-flight twin instead of opening an upstream exchange.
# TYPE sgcoord_coalesced_total counter
sgcoord_coalesced_total 22
# HELP sgcoord_shed_total Requests refused by coordinator admission control (429).
# TYPE sgcoord_shed_total counter
sgcoord_shed_total 23
# HELP sgcoord_proxied_total Upstream exchanges performed.
# TYPE sgcoord_proxied_total counter
sgcoord_proxied_total 24
# HELP sgcoord_reroutes_total Attempts moved to the next ring replica after a backend failure.
# TYPE sgcoord_reroutes_total counter
sgcoord_reroutes_total 25
# HELP sgcoord_upstream_429_total Upstream answers that were backend backpressure sheds.
# TYPE sgcoord_upstream_429_total counter
sgcoord_upstream_429_total 26
# HELP sgcoord_upstream_failures_total Exchanges no replica could answer.
# TYPE sgcoord_upstream_failures_total counter
sgcoord_upstream_failures_total 27
# HELP sgcoord_admission_queue_depth Requests waiting for an admission slot.
# TYPE sgcoord_admission_queue_depth gauge
sgcoord_admission_queue_depth 3
# HELP sgcoord_admission_running Admission slots currently held.
# TYPE sgcoord_admission_running gauge
sgcoord_admission_running 2
# HELP sgcoord_draining 1 once graceful shutdown has begun.
# TYPE sgcoord_draining gauge
sgcoord_draining 1
# HELP sgcoord_backend_proxied_total Exchanges answered per backend.
# TYPE sgcoord_backend_proxied_total counter
sgcoord_backend_proxied_total{backend="http://backend-a"} 28
sgcoord_backend_proxied_total{backend="http://backend-b"} 29
# HELP sgcoord_backend_failures_total Failed exchanges per backend.
# TYPE sgcoord_backend_failures_total counter
sgcoord_backend_failures_total{backend="http://backend-a"} 30
sgcoord_backend_failures_total{backend="http://backend-b"} 31
# HELP sgcoord_backend_healthy Backend readiness as seen by the health checker.
# TYPE sgcoord_backend_healthy gauge
sgcoord_backend_healthy{backend="http://backend-a"} 1
sgcoord_backend_healthy{backend="http://backend-b"} 0
`
