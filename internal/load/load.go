// Package load is a seeded, deterministic HTTP load generator for
// sgserved and sgcoord. A run pre-generates its whole operation
// schedule from the seed — which request kinds fire in which order,
// with which parameters — so two runs with the same seed against the
// same target issue byte-identical traffic; only the timings differ.
// The report separates sheds (429 backpressure, an expected outcome
// under load) from errors (anything else non-2xx or transport-level),
// so "zero errors under a shedding server" is a checkable property.
package load

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"
)

// Op kinds in the generated mix.
const (
	OpRun     = "run"
	OpSweep   = "sweep"
	OpExplore = "explore"
)

// Config parameterizes one load run.
type Config struct {
	// BaseURL targets a single sgserved or an sgcoord; the /v1 wire
	// surface is identical.
	BaseURL string
	// Requests is the total operation count.
	Requests int
	// Concurrency is the number of worker goroutines draining the
	// schedule. Default 8.
	Concurrency int
	// Rate throttles issue to about this many ops/second across all
	// workers; 0 means unthrottled.
	Rate float64
	// Seed drives schedule generation. Same seed, same schedule.
	Seed int64
	// MixRun/MixSweep/MixExplore weight the op kinds; all zero means
	// run-only. Sweeps and explores are whole-table/whole-grid ops and
	// far heavier than single runs, so keep their weights small.
	MixRun, MixSweep, MixExplore int
	// Timeout bounds one operation end to end. Default 2m (a cold sweep
	// simulates 12 cells).
	Timeout time.Duration
}

// op is one scheduled operation.
type op struct {
	kind string
	// run parameters (kind == OpRun)
	workload, scheme string
	entries          int
}

// Result is one operation's outcome.
type result struct {
	kind      string
	status    int
	shed      bool
	coalesced bool
	err       error
	latency   time.Duration
}

// KindStats aggregates one op kind in the report.
type KindStats struct {
	Requests int `json:"requests"`
	OK       int `json:"ok"`
	Shed     int `json:"shed"`
	Errors   int `json:"errors"`
}

// Report is the run summary, marshaled as the sgload JSON output.
type Report struct {
	Target      string  `json:"target"`
	Seed        int64   `json:"seed"`
	Requests    int     `json:"requests"`
	Concurrency int     `json:"concurrency"`
	OK          int     `json:"ok"`
	Shed        int     `json:"shed"`
	Errors      int     `json:"errors"`
	Coalesced   int     `json:"coalesced"`
	DurationSec float64 `json:"duration_sec"`
	// Throughput counts completed (OK) operations per second.
	Throughput float64 `json:"throughput_rps"`
	// Latency percentiles over successful operations, milliseconds.
	P50Ms float64 `json:"p50_ms"`
	P95Ms float64 `json:"p95_ms"`
	P99Ms float64 `json:"p99_ms"`
	MaxMs float64 `json:"max_ms"`

	ByKind map[string]*KindStats `json:"by_kind"`
	// ErrorSamples holds up to 5 distinct error strings for diagnosis.
	ErrorSamples []string `json:"error_samples,omitempty"`
}

// schedule expands the config into the deterministic op sequence.
func schedule(cfg Config) []op {
	rng := rand.New(rand.NewSource(cfg.Seed))
	wr, ws, we := cfg.MixRun, cfg.MixSweep, cfg.MixExplore
	if wr <= 0 && ws <= 0 && we <= 0 {
		wr = 1
	}
	total := wr + ws + we
	workloads := []string{"compress", "espresso", "xlisp", "grep"}
	schemes := []string{"2bit", "proposed", "perfect"}
	ops := make([]op, cfg.Requests)
	for i := range ops {
		pick := rng.Intn(total)
		switch {
		case pick < wr:
			ops[i] = op{
				kind:     OpRun,
				workload: workloads[rng.Intn(len(workloads))],
				scheme:   schemes[rng.Intn(len(schemes))],
				// A third of runs vary the predictor table so the key space
				// is wider than the 12 sweep cells.
				entries: map[bool]int{true: 1 << uint(9+rng.Intn(3)), false: 0}[rng.Intn(3) == 0],
			}
		case pick < wr+ws:
			ops[i] = op{kind: OpSweep}
		default:
			ops[i] = op{kind: OpExplore}
		}
	}
	return ops
}

// exploreBody is the fixed small grid every explore op posts: 2 points
// on one workload, cheap enough to repeat and constant so the store
// and coalescing layers can absorb duplicates.
const exploreBody = `{"axes":[{"name":"fetch_width","values":[2,4]}],"workloads":["grep"],"scheme":"2bit"}`

// Run executes the configured load and reports.
func Run(ctx context.Context, cfg Config) (*Report, error) {
	if cfg.BaseURL == "" {
		return nil, fmt.Errorf("load: BaseURL required")
	}
	if cfg.Requests <= 0 {
		return nil, fmt.Errorf("load: Requests must be positive")
	}
	if cfg.Concurrency <= 0 {
		cfg.Concurrency = 8
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = 2 * time.Minute
	}
	// A client of its own, not http.DefaultClient, so one run's
	// connection pool does not leak into the next.
	client := &http.Client{}
	base := strings.TrimRight(cfg.BaseURL, "/")

	ops := schedule(cfg)
	next := make(chan op)
	results := make([]result, len(ops))
	var idx sync.Mutex
	cursor := 0

	// The optional rate limiter: a ticker paced for the aggregate rate,
	// shared by all workers.
	var pace <-chan time.Time
	if cfg.Rate > 0 {
		t := time.NewTicker(time.Duration(float64(time.Second) / cfg.Rate))
		defer t.Stop()
		pace = t.C
	}

	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < cfg.Concurrency; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for o := range next {
				if pace != nil {
					select {
					case <-pace:
					case <-ctx.Done():
						return
					}
				}
				r := execute(ctx, client, base, o, cfg.Timeout)
				idx.Lock()
				results[cursor] = r
				cursor++
				idx.Unlock()
			}
		}()
	}
feed:
	for _, o := range ops {
		select {
		case next <- o:
		case <-ctx.Done():
			break feed
		}
	}
	close(next)
	wg.Wait()
	elapsed := time.Since(start)

	rep := &Report{
		Target:      cfg.BaseURL,
		Seed:        cfg.Seed,
		Requests:    cursor,
		Concurrency: cfg.Concurrency,
		DurationSec: elapsed.Seconds(),
		ByKind:      map[string]*KindStats{},
	}
	var lat []time.Duration
	seenErr := map[string]bool{}
	for _, r := range results[:cursor] {
		ks := rep.ByKind[r.kind]
		if ks == nil {
			ks = &KindStats{}
			rep.ByKind[r.kind] = ks
		}
		ks.Requests++
		switch {
		case r.err == nil && !r.shed:
			rep.OK++
			ks.OK++
			lat = append(lat, r.latency)
			if r.coalesced {
				rep.Coalesced++
			}
		case r.shed:
			rep.Shed++
			ks.Shed++
		default:
			rep.Errors++
			ks.Errors++
			msg := r.err.Error()
			if len(rep.ErrorSamples) < 5 && !seenErr[msg] {
				seenErr[msg] = true
				rep.ErrorSamples = append(rep.ErrorSamples, msg)
			}
		}
	}
	if elapsed > 0 {
		rep.Throughput = float64(rep.OK) / elapsed.Seconds()
	}
	if len(lat) > 0 {
		sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
		pct := func(p float64) float64 {
			i := int(p * float64(len(lat)-1))
			return float64(lat[i]) / float64(time.Millisecond)
		}
		rep.P50Ms = pct(0.50)
		rep.P95Ms = pct(0.95)
		rep.P99Ms = pct(0.99)
		rep.MaxMs = float64(lat[len(lat)-1]) / float64(time.Millisecond)
	}
	return rep, nil
}

// execute performs one operation. NDJSON endpoints (sweep, explore)
// are drained line by line; an "error" event line counts the op as
// failed even though the stream itself was a 200.
func execute(ctx context.Context, client *http.Client, base string, o op, timeout time.Duration) result {
	ctx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()
	var req *http.Request
	var err error
	switch o.kind {
	case OpRun:
		url := fmt.Sprintf("%s/v1/run?workload=%s&scheme=%s", base, o.workload, o.scheme)
		if o.entries > 0 {
			url += fmt.Sprintf("&entries=%d", o.entries)
		}
		req, err = http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	case OpSweep:
		req, err = http.NewRequestWithContext(ctx, http.MethodGet, base+"/v1/sweep", nil)
	case OpExplore:
		req, err = http.NewRequestWithContext(ctx, http.MethodPost, base+"/v1/explore",
			strings.NewReader(exploreBody))
		if err == nil {
			req.Header.Set("Content-Type", "application/json")
		}
	default:
		return result{kind: o.kind, err: fmt.Errorf("unknown op kind %q", o.kind)}
	}
	if err != nil {
		return result{kind: o.kind, err: err}
	}

	start := time.Now()
	resp, err := client.Do(req)
	if err != nil {
		return result{kind: o.kind, err: err, latency: time.Since(start)}
	}
	defer resp.Body.Close()
	res := result{
		kind:      o.kind,
		status:    resp.StatusCode,
		coalesced: resp.Header.Get("X-SG-Cluster-Coalesced") == "1" || resp.Header.Get("X-SG-Coalesced") == "1",
	}
	switch {
	case resp.StatusCode == http.StatusTooManyRequests:
		io.Copy(io.Discard, resp.Body)
		res.shed = true
	case resp.StatusCode != http.StatusOK:
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		res.err = fmt.Errorf("%s: status %d: %s", o.kind, resp.StatusCode, strings.TrimSpace(string(body)))
	case o.kind == OpRun:
		_, res.err = io.Copy(io.Discard, resp.Body)
	default:
		// NDJSON: scan for embedded error events while draining.
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
		for sc.Scan() {
			line := sc.Text()
			if strings.Contains(line, `"event":"error"`) {
				res.err = fmt.Errorf("%s: stream error event: %s", o.kind, line)
			}
		}
		if err := sc.Err(); err != nil && res.err == nil {
			res.err = fmt.Errorf("%s: reading stream: %w", o.kind, err)
		}
	}
	res.latency = time.Since(start)
	return res
}
