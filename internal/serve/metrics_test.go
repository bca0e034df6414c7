package serve

import (
	"context"
	"net/http"
	"testing"
	"time"

	"specguard/internal/bench"
)

// TestMetricsGolden pins sgserved's whole /metrics body: every family's
// HELP, TYPE and samples, in order, with each family at a distinct
// non-zero value so a swapped or misformatted family shows. It covers a
// counter of 10^6 or more (printed without an exponent), a fractional
// lanes-per-drain, and a histogram observation past the last bucket.
func TestMetricsGolden(t *testing.T) {
	s, ts := newTestServer(t, nil)

	// Three drains of two programs on four lanes, one machine each: the
	// second grep drain reuses the first one's idle machine.
	grep, err := bench.ByName("grep")
	if err != nil {
		t.Fatal(err)
	}
	compress, err := bench.ByName("compress")
	if err != nil {
		t.Fatal(err)
	}
	for _, specs := range [][]bench.Spec{
		{{Workload: grep, Scheme: bench.SchemeTwoBit}, {Workload: grep, Scheme: bench.SchemePerfect}},
		{{Workload: compress, Scheme: bench.SchemeTwoBit}},
		{{Workload: grep, Scheme: bench.SchemeTwoBit, Entries: 64}},
	} {
		if _, err := s.runner.RunSpecs(context.Background(), specs); err != nil {
			t.Fatal(err)
		}
	}
	if a, d, l := s.runner.ArchRuns(), s.runner.TraceDrains(), s.runner.SimLanes(); a != 2 || d != 3 || l != 4 {
		t.Fatalf("runner built %d machines for %d drains of %d lanes, want 2, 3 and 4", a, d, l)
	}

	m := &s.metrics
	for v, c := range []interface{ Store(int64) }{
		&m.BadRequests, &m.Rejected, &m.CoalescedHits, &m.StoreHits, &m.StoreMisses,
		&m.StoreWrites, &m.StoreQuarantined, &m.SimRuns, &m.SimErrors, &m.QueueDepth,
		&m.InFlight,
	} {
		c.Store(int64(21 + v))
	}
	m.Requests.Store(1234567)
	m.Draining.Store(1)
	for _, d := range []time.Duration{3 * time.Millisecond, 700 * time.Millisecond, 45 * time.Second} {
		m.SimSeconds.Observe(d)
	}

	code, body := get(t, ts.URL+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics = %d", code)
	}
	if body != goldenServeMetrics {
		t.Errorf("/metrics body differs from the golden one\ngot:\n%s\nwant:\n%s", body, goldenServeMetrics)
	}
}

const goldenServeMetrics = `# HELP sgserved_requests_total Experiment requests received (all endpoints, before validation).
# TYPE sgserved_requests_total counter
sgserved_requests_total 1234567
# HELP sgserved_bad_requests_total Requests rejected as malformed (400).
# TYPE sgserved_bad_requests_total counter
sgserved_bad_requests_total 21
# HELP sgserved_rejected_total Requests shed by queue-depth backpressure (429).
# TYPE sgserved_rejected_total counter
sgserved_rejected_total 22
# HELP sgserved_coalesced_hits_total Requests that attached to an identical in-flight run instead of simulating.
# TYPE sgserved_coalesced_hits_total counter
sgserved_coalesced_hits_total 23
# HELP sgserved_store_hits_total Requests answered from the content-addressed result store.
# TYPE sgserved_store_hits_total counter
sgserved_store_hits_total 24
# HELP sgserved_store_misses_total Store lookups that found no entry (the request went on to coalesce or simulate).
# TYPE sgserved_store_misses_total counter
sgserved_store_misses_total 25
# HELP sgserved_store_writes_total Results persisted to the store.
# TYPE sgserved_store_writes_total counter
sgserved_store_writes_total 26
# HELP sgserved_store_quarantined_total Corrupt store entries moved to quarantine.
# TYPE sgserved_store_quarantined_total counter
sgserved_store_quarantined_total 27
# HELP sgserved_sim_runs_total Timing simulations executed by the worker pool.
# TYPE sgserved_sim_runs_total counter
sgserved_sim_runs_total 28
# HELP sgserved_sim_errors_total Simulations that failed (cancelled, timed out, or simulator error).
# TYPE sgserved_sim_errors_total counter
sgserved_sim_errors_total 29
# HELP sgserved_queue_depth Jobs accepted but not yet simulating.
# TYPE sgserved_queue_depth gauge
sgserved_queue_depth 30
# HELP sgserved_inflight Jobs currently simulating.
# TYPE sgserved_inflight gauge
sgserved_inflight 31
# HELP sgserved_draining 1 once graceful shutdown has begun.
# TYPE sgserved_draining gauge
sgserved_draining 1
# HELP sgserved_arch_runs_total Machines the shared Runner built to run programs architecturally (a drain that reuses an idle machine adds none).
# TYPE sgserved_arch_runs_total counter
sgserved_arch_runs_total 2
# HELP sgserved_trace_drains_total Drains run by the shared Runner: live runs of a program's committed-event stream into timing simulations (a batched drain feeds many lanes).
# TYPE sgserved_trace_drains_total counter
sgserved_trace_drains_total 3
# HELP sgserved_sim_lanes_total Timing-simulation lanes fed by those drains.
# TYPE sgserved_sim_lanes_total counter
sgserved_sim_lanes_total 4
# HELP sgserved_lanes_per_drain Mean simulation lanes per drain (sim_lanes/trace_drains); above 1 means batching is amortizing the architectural run and decode.
# TYPE sgserved_lanes_per_drain gauge
sgserved_lanes_per_drain 1.3333333333333333
# HELP sgserved_sim_seconds Wall time of executed simulations.
# TYPE sgserved_sim_seconds histogram
sgserved_sim_seconds_bucket{le="0.001"} 0
sgserved_sim_seconds_bucket{le="0.0025"} 0
sgserved_sim_seconds_bucket{le="0.005"} 1
sgserved_sim_seconds_bucket{le="0.01"} 1
sgserved_sim_seconds_bucket{le="0.025"} 1
sgserved_sim_seconds_bucket{le="0.05"} 1
sgserved_sim_seconds_bucket{le="0.1"} 1
sgserved_sim_seconds_bucket{le="0.25"} 1
sgserved_sim_seconds_bucket{le="0.5"} 1
sgserved_sim_seconds_bucket{le="1"} 2
sgserved_sim_seconds_bucket{le="2.5"} 2
sgserved_sim_seconds_bucket{le="5"} 2
sgserved_sim_seconds_bucket{le="10"} 2
sgserved_sim_seconds_bucket{le="30"} 2
sgserved_sim_seconds_bucket{le="+Inf"} 3
sgserved_sim_seconds_sum 45.703
sgserved_sim_seconds_count 3
`
