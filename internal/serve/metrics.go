package serve

import (
	"fmt"
	"io"
	"sync/atomic"
	"time"
)

// simBuckets are the latency histogram's upper bounds in seconds.
// Simulations of the paper's kernels land in the 0.1–2.5 s decades on
// commodity hardware; the sub-millisecond buckets catch store and
// coalesced hits when callers time the whole request instead.
var simBuckets = [...]float64{
	0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
	0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30,
}

// histogram is a fixed-bucket cumulative histogram, Prometheus-shaped:
// bucket[i] counts observations ≤ simBuckets[i], the implicit +Inf
// bucket is Count. All fields are atomics; Observe is lock-free.
type histogram struct {
	counts [len(simBuckets)]atomic.Int64
	count  atomic.Int64
	sumNS  atomic.Int64
}

func (h *histogram) Observe(d time.Duration) {
	sec := d.Seconds()
	for i, ub := range simBuckets {
		if sec <= ub {
			h.counts[i].Add(1)
		}
	}
	h.count.Add(1)
	h.sumNS.Add(int64(d))
}

// Metrics is the service's live instrumentation: plain atomic counters
// and gauges rendered in Prometheus text exposition format by
// WritePrometheus. Stdlib only — no client library.
type Metrics struct {
	Requests         atomic.Int64 // experiment requests accepted for parsing
	BadRequests      atomic.Int64 // malformed or unknown-workload requests
	Rejected         atomic.Int64 // backpressure 429s
	CoalescedHits    atomic.Int64 // requests attached to an in-flight twin
	StoreHits        atomic.Int64 // requests answered from the result store
	StoreMisses      atomic.Int64 // store lookups that found nothing
	StoreWrites      atomic.Int64 // results persisted
	StoreQuarantined atomic.Int64 // corrupt store entries set aside
	SimRuns          atomic.Int64 // simulations executed by the pool
	SimErrors        atomic.Int64 // simulations that returned an error
	QueueDepth       atomic.Int64 // jobs waiting for a worker (gauge)
	InFlight         atomic.Int64 // jobs being simulated (gauge)
	Draining         atomic.Int64 // 1 once shutdown has begun (gauge)

	SimSeconds histogram // wall time per executed simulation
}

// counter/gauge rows for the text exposition; histograms are rendered
// separately.
type metricRow struct {
	name, help, typ string
	value           func(m *Metrics) int64
}

var metricRows = []metricRow{
	{"sgserved_requests_total", "Experiment requests received (all endpoints, before validation).", "counter", func(m *Metrics) int64 { return m.Requests.Load() }},
	{"sgserved_bad_requests_total", "Requests rejected as malformed (400).", "counter", func(m *Metrics) int64 { return m.BadRequests.Load() }},
	{"sgserved_rejected_total", "Requests shed by queue-depth backpressure (429).", "counter", func(m *Metrics) int64 { return m.Rejected.Load() }},
	{"sgserved_coalesced_hits_total", "Requests that attached to an identical in-flight run instead of simulating.", "counter", func(m *Metrics) int64 { return m.CoalescedHits.Load() }},
	{"sgserved_store_hits_total", "Requests answered from the content-addressed result store.", "counter", func(m *Metrics) int64 { return m.StoreHits.Load() }},
	{"sgserved_store_misses_total", "Store lookups that found no entry (the request went on to coalesce or simulate).", "counter", func(m *Metrics) int64 { return m.StoreMisses.Load() }},
	{"sgserved_store_writes_total", "Results persisted to the store.", "counter", func(m *Metrics) int64 { return m.StoreWrites.Load() }},
	{"sgserved_store_quarantined_total", "Corrupt store entries moved to quarantine.", "counter", func(m *Metrics) int64 { return m.StoreQuarantined.Load() }},
	{"sgserved_sim_runs_total", "Timing simulations executed by the worker pool.", "counter", func(m *Metrics) int64 { return m.SimRuns.Load() }},
	{"sgserved_sim_errors_total", "Simulations that failed (cancelled, timed out, or simulator error).", "counter", func(m *Metrics) int64 { return m.SimErrors.Load() }},
	{"sgserved_queue_depth", "Jobs accepted but not yet simulating.", "gauge", func(m *Metrics) int64 { return m.QueueDepth.Load() }},
	{"sgserved_inflight", "Jobs currently simulating.", "gauge", func(m *Metrics) int64 { return m.InFlight.Load() }},
	{"sgserved_draining", "1 once graceful shutdown has begun.", "gauge", func(m *Metrics) int64 { return m.Draining.Load() }},
}

// RunnerStats carries the shared Runner's cumulative counters into the
// metrics exposition: they live in the Runner (the serve layer never
// simulates on its own), but scrapes want them next to the service
// counters so the caching AND batching invariants are provable from
// one endpoint.
type RunnerStats struct {
	// ArchRuns counts the machines the Runner built to run programs
	// architecturally; a drain that reuses an idle one adds none.
	ArchRuns int64
	// TraceDrains counts drains: live runs of a program's event stream
	// into timing simulations; one batched drain can feed many lanes.
	TraceDrains int64
	// SimLanes counts the timing-simulation lanes those drains fed.
	SimLanes int64
}

// WritePrometheus renders every counter, gauge and histogram in the
// Prometheus text exposition format (version 0.0.4). rs is the
// Runner's cumulative state, surfaced here so an external scrape can
// prove the coalescing/caching invariants (arch_runs) and the batching
// amortization (sim_lanes/trace_drains) — the serve-smoke target and
// the acceptance tests key off these.
func (m *Metrics) WritePrometheus(w io.Writer, rs RunnerStats) {
	for _, row := range metricRows {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n%s %d\n",
			row.name, row.help, row.name, row.typ, row.name, row.value(m))
	}
	for _, rr := range []struct {
		name, help string
		value      int64
	}{
		{"sgserved_arch_runs_total", "Machines the shared Runner built to run programs architecturally (a drain that reuses an idle machine adds none).", rs.ArchRuns},
		{"sgserved_trace_drains_total", "Drains run by the shared Runner: live runs of a program's committed-event stream into timing simulations (a batched drain feeds many lanes).", rs.TraceDrains},
		{"sgserved_sim_lanes_total", "Timing-simulation lanes fed by those drains.", rs.SimLanes},
	} {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n",
			rr.name, rr.help, rr.name, rr.name, rr.value)
	}
	lanesPerDrain := 0.0
	if rs.TraceDrains > 0 {
		lanesPerDrain = float64(rs.SimLanes) / float64(rs.TraceDrains)
	}
	fmt.Fprintf(w, "# HELP sgserved_lanes_per_drain Mean simulation lanes per drain (sim_lanes/trace_drains); above 1 means batching is amortizing the architectural run and decode.\n")
	fmt.Fprintf(w, "# TYPE sgserved_lanes_per_drain gauge\n")
	fmt.Fprintf(w, "sgserved_lanes_per_drain %g\n", lanesPerDrain)

	h := &m.SimSeconds
	fmt.Fprintf(w, "# HELP sgserved_sim_seconds Wall time of executed simulations.\n")
	fmt.Fprintf(w, "# TYPE sgserved_sim_seconds histogram\n")
	for i, ub := range simBuckets {
		fmt.Fprintf(w, "sgserved_sim_seconds_bucket{le=%q} %d\n", trimFloat(ub), h.counts[i].Load())
	}
	fmt.Fprintf(w, "sgserved_sim_seconds_bucket{le=\"+Inf\"} %d\n", h.count.Load())
	fmt.Fprintf(w, "sgserved_sim_seconds_sum %g\n", float64(h.sumNS.Load())/1e9)
	fmt.Fprintf(w, "sgserved_sim_seconds_count %d\n", h.count.Load())
}

// trimFloat formats a bucket bound the way Prometheus clients expect
// (no exponent, no trailing zeros).
func trimFloat(f float64) string {
	return fmt.Sprintf("%g", f)
}
