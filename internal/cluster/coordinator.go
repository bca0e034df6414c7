package cluster

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"specguard/internal/machine"
	"specguard/internal/serve"
)

// Config assembles a Coordinator.
type Config struct {
	// Backends are the sgserved base URLs (e.g. http://127.0.0.1:8081);
	// required, at least one.
	Backends []string
	// VNodes is the ring's virtual-node count per backend (0 =
	// DefaultVNodes). Placement is deterministic in (Backends, VNodes).
	VNodes int
	// Replicas bounds how many distinct backends one request may try
	// (0 = all). The primary is always first; later replicas are the
	// retry path for idempotent requests when earlier ones fail.
	Replicas int
	// AttemptTimeout bounds one upstream exchange attempt. Default 90s.
	AttemptTimeout time.Duration
	// Health tunes the /readyz prober.
	Health HealthConfig
	// Admission tunes the bounded priority queue.
	Admission AdmissionConfig
	// Logf receives operational messages; nil discards.
	Logf func(format string, args ...any)
}

// baseModel is the machine model requests are normalized against:
// sgserved's Runner model, so shard keys are the backends' store keys.
var baseModel = machine.R10000()

// exchangeTimeout bounds one full exchange including replica retries
// and Retry-After waits.
const exchangeTimeout = 10 * time.Minute

// Coordinator shards the canonical result keyspace across sgserved
// backends and fronts them with cluster-wide singleflight, health
// checking with replica retry, and admission control. It holds no
// simulation state of its own: every result lives in a backend's
// store, and placement is a pure function of the key and the backend
// set.
type Coordinator struct {
	cfg     Config
	ring    *Ring
	health  *HealthChecker
	adm     *Admission
	flights flightGroup
	metrics *Metrics

	baseCtx  context.Context
	cancel   context.CancelFunc
	draining atomic.Bool
}

// New validates cfg, builds the ring, and starts the health checker.
func New(cfg Config) (*Coordinator, error) {
	ring, err := NewRing(cfg.Backends, cfg.VNodes)
	if err != nil {
		return nil, err
	}
	if cfg.AttemptTimeout <= 0 {
		cfg.AttemptTimeout = 90 * time.Second
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	if cfg.Health.Logf == nil {
		cfg.Health.Logf = cfg.Logf
	}
	ctx, cancel := context.WithCancel(context.Background())
	c := &Coordinator{
		cfg:     cfg,
		ring:    ring,
		health:  NewHealthChecker(ring.Backends(), cfg.Health),
		adm:     NewAdmission(cfg.Admission),
		metrics: newMetrics(ring.Backends()),
		baseCtx: ctx,
		cancel:  cancel,
	}
	c.health.Start()
	return c, nil
}

// Close stops the health checker and cancels in-flight exchanges.
func (c *Coordinator) Close() {
	c.cancel()
	c.health.Close()
}

// BeginDrain flips /healthz and /readyz to 503 so a load balancer
// stops sending work; in-flight exchanges complete.
func (c *Coordinator) BeginDrain() { c.draining.Store(true) }

// Draining reports whether shutdown has begun.
func (c *Coordinator) Draining() bool { return c.draining.Load() }

// Metrics exposes the live counters.
func (c *Coordinator) Metrics() *Metrics { return c.metrics }

// Ring exposes the placement ring (state endpoint, tests).
func (c *Coordinator) Ring() *Ring { return c.ring }

// Health exposes the health checker (state endpoint, tests).
func (c *Coordinator) Health() *HealthChecker { return c.health }

// candidates returns the replica sequence for key with healthy
// backends first (stable within each class): the primary serves unless
// ejected, and ejected backends are still last-resort candidates so a
// wrongly-ejected cluster degrades to slow, not down.
func (c *Coordinator) candidates(key string) []string {
	reps := c.ring.Replicas(key, c.cfg.Replicas)
	out := make([]string, 0, len(reps))
	for _, b := range reps {
		if c.health.Healthy(b) {
			out = append(out, b)
		}
	}
	for _, b := range reps {
		if !c.health.Healthy(b) {
			out = append(out, b)
		}
	}
	return out
}

// exchange performs one idempotent upstream exchange against key's
// replica sequence: network errors and gateway-class statuses move to
// the next replica (counted as reroutes and reported to the health
// checker); 429s record the backend's Retry-After and also try the
// next replica. When every replica sheds, the exchange either
// propagates the 429 with the smallest Retry-After (retryShed=false —
// the interactive path, where the CLIENT owns backoff) or honors that
// Retry-After itself and retries the ring until ctx expires
// (retryShed=true — the batch path, mirroring how sgserved's own sweep
// handler absorbs backpressure).
func (c *Coordinator) exchange(ctx context.Context, method, path string, body []byte, contentType string, key string, retryShed bool) (*Upstream, error) {
	ctx, cancel := context.WithTimeout(ctx, exchangeTimeout)
	defer cancel()
	for {
		var shed *Upstream
		shedWait := time.Duration(0)
		for attempt, backend := range c.candidates(key) {
			if attempt > 0 {
				c.metrics.Reroutes.Add(1)
			}
			up, err := c.attempt(ctx, method, backend+path, body, contentType)
			if err != nil {
				c.metrics.Backend(backend).Failures.Add(1)
				c.health.ReportFailure(backend, err.Error())
				if ctx.Err() != nil {
					return nil, ctx.Err()
				}
				continue
			}
			up.Attempts = attempt + 1
			switch {
			case up.Status == http.StatusTooManyRequests:
				c.metrics.Upstream429.Add(1)
				c.health.ReportSuccess(backend) // shedding is healthy behavior
				if w := retryAfterDuration(up.RetryAfter); shed == nil || w < shedWait {
					shed, shedWait = up, w
				}
			case up.Status == http.StatusBadGateway || up.Status == http.StatusServiceUnavailable || up.Status == http.StatusGatewayTimeout:
				c.metrics.Backend(backend).Failures.Add(1)
				c.health.ReportFailure(backend, fmt.Sprintf("status %d", up.Status))
			default:
				c.metrics.Proxied.Add(1)
				c.metrics.Backend(backend).Proxied.Add(1)
				c.health.ReportSuccess(backend)
				up.Backend = backend
				return up, nil
			}
		}
		if shed == nil {
			c.metrics.UpstreamFails.Add(1)
			return nil, fmt.Errorf("cluster: no replica could answer %s %s", method, path)
		}
		if !retryShed {
			return shed, nil
		}
		select {
		case <-time.After(shedWait):
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
}

// attempt performs a single upstream request with the per-attempt
// timeout, buffering the body.
func (c *Coordinator) attempt(ctx context.Context, method, url string, body []byte, contentType string) (*Upstream, error) {
	ctx, cancel := context.WithTimeout(ctx, c.cfg.AttemptTimeout)
	defer cancel()
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, rd)
	if err != nil {
		return nil, err
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, 64<<20))
	if err != nil {
		return nil, err
	}
	return &Upstream{
		Status:      resp.StatusCode,
		Body:        data,
		ContentType: resp.Header.Get("Content-Type"),
		RetryAfter:  resp.Header.Get("Retry-After"),
	}, nil
}

// retryAfterDuration parses a Retry-After seconds value, defaulting to
// one second.
func retryAfterDuration(v string) time.Duration {
	if n, err := strconv.Atoi(v); err == nil && n >= 0 {
		return time.Duration(n) * time.Second
	}
	return time.Second
}

// runLeader builds the singleflight leader body for one /v1/run
// exchange. A sweep cell takes no admission slot of its own (the
// enclosing sweep already holds a batch one, and a cell taking more is
// exactly how a greedy sweeper would starve everyone) and absorbs
// upstream 429s by honoring Retry-After; any other request is admitted
// in the interactive class and propagates them.
func (c *Coordinator) runLeader(clientID, key string, body []byte, sweepCell bool) func() (*Upstream, error) {
	return func() (*Upstream, error) {
		// The leader runs under the coordinator's context, not the
		// client's: waiters coalesced onto this exchange must still get
		// the result if the leader's client disconnects.
		lctx, lcancel := context.WithTimeout(c.baseCtx, exchangeTimeout)
		defer lcancel()
		if !sweepCell {
			release, err := c.adm.Acquire(lctx, clientID, true)
			if err != nil {
				return nil, err
			}
			defer release()
		}
		return c.exchange(lctx, http.MethodPost, "/v1/run", body, "application/json", key, sweepCell)
	}
}

// DoRun executes one /v1/run request cluster-wide: normalize to the
// canonical key, coalesce with any identical in-flight exchange, admit
// (interactive class, unless it is a sweep cell: see runLeader), and
// proxy to the key's shard with replica retry. The second return
// reports whether this caller shared another caller's exchange.
func (c *Coordinator) DoRun(ctx context.Context, clientID string, req serve.RunRequest, sweepCell bool) (*Upstream, bool, error) {
	_, key, err := serve.NormalizeRequest(&req, baseModel)
	if err != nil {
		return nil, false, err
	}
	body, err := json.Marshal(req)
	if err != nil {
		return nil, false, err
	}
	up, shared, err := c.flights.Do(ctx, key, c.runLeader(clientID, key, body, sweepCell))
	if shared {
		c.metrics.Coalesced.Add(1)
	}
	return up, shared, err
}

// AcquireBatch takes one batch-class admission slot (the whole-sweep
// unit the HTTP sweep handler holds while its cells run).
func (c *Coordinator) AcquireBatch(ctx context.Context, clientID string) (func(), error) {
	return c.adm.Acquire(ctx, clientID, false)
}

// ShardInfo names a request's canonical identity and placement.
type ShardInfo struct {
	Canonical string   `json:"canonical"`
	Key       string   `json:"key"` // SHA-256 content address, as in the store
	Owner     string   `json:"owner"`
	Replicas  []string `json:"replicas"`
}

// Shard resolves a request's placement without executing it.
func (c *Coordinator) Shard(req serve.RunRequest) (*ShardInfo, error) {
	_, key, err := serve.NormalizeRequest(&req, baseModel)
	if err != nil {
		return nil, err
	}
	sum := sha256.Sum256([]byte(key))
	return &ShardInfo{
		Canonical: key,
		Key:       hex.EncodeToString(sum[:]),
		Owner:     c.ring.Owner(key),
		Replicas:  c.ring.Replicas(key, c.cfg.Replicas),
	}, nil
}

// DoExplore proxies one design-space sweep. The whole grid is one
// idempotent unit placed by the hash of its canonical body, so a
// repeated grid lands on the same backend and reuses its program cache.
func (c *Coordinator) DoExplore(ctx context.Context, clientID string, body []byte) (*Upstream, error) {
	sum := sha256.Sum256(body)
	key := "explore|" + hex.EncodeToString(sum[:])
	lctx, lcancel := context.WithTimeout(c.baseCtx, exchangeTimeout)
	defer lcancel()
	release, err := c.adm.Acquire(lctx, clientID, false)
	if err != nil {
		return nil, err
	}
	defer release()
	return c.exchange(lctx, http.MethodPost, "/v1/explore", body, "application/json", key, true)
}
