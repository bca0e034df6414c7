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

// samples returns the histogram's Prometheus samples: one cumulative
// bucket per bound, the +Inf bucket, the sum in seconds and the count.
func (h *histogram) samples() []Sample {
	out := make([]Sample, 0, len(simBuckets)+3)
	for i, ub := range simBuckets {
		out = append(out, Sample{fmt.Sprintf("_bucket{le=\"%g\"}", ub), h.counts[i].Load()})
	}
	return append(out,
		Sample{`_bucket{le="+Inf"}`, h.count.Load()},
		Sample{"_sum", float64(h.sumNS.Load()) / 1e9},
		Sample{"_count", h.count.Load()})
}

// Metrics is the service's live instrumentation: plain atomic counters
// and gauges, rendered with WriteMetric by the /metrics handler. Stdlib
// only — no client library.
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

// Sample is one line of a metric family: Suffix follows the family name
// (a suffix such as "_bucket", then labels such as `{le="0.5"}`; empty
// for a plain counter or gauge) and Value is printed with %v, so an
// int64 prints as with %d and a float64 as with %g.
type Sample struct {
	Suffix string
	Value  any
}

// WriteMetric writes one metric family in the Prometheus text exposition
// format (version 0.0.4): its HELP and TYPE lines, then its samples.
// sgserved and sgcoord render every family through it.
func WriteMetric(w io.Writer, name, typ, help string, samples ...Sample) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
	for _, s := range samples {
		fmt.Fprintf(w, "%s%s %v\n", name, s.Suffix, s.Value)
	}
}
