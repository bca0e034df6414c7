package cluster

import (
	"math/rand"
	"net/http"
	"sync"
	"time"
)

// HealthConfig tunes the backend health checker.
type HealthConfig struct {
	// Interval between probes of a healthy backend. Default 1s.
	Interval time.Duration
	// ProbeTimeout bounds one /readyz exchange. Default 2s.
	ProbeTimeout time.Duration
	// FailThreshold is the consecutive-failure count (probes plus
	// passive proxy failures) that ejects a backend. Default 3.
	FailThreshold int
	// BackoffBase is the first re-probe delay after ejection; it
	// doubles per consecutive failure up to BackoffMax, with ±25%
	// jitter so a restarted cluster's probes don't synchronize across
	// coordinators. The jitter PRNG has a fixed seed, so tests are
	// deterministic. Defaults 500ms / 15s.
	BackoffBase time.Duration
	BackoffMax  time.Duration
	// Logf receives health transitions; nil discards.
	Logf func(format string, args ...any)
}

type backendHealth struct {
	healthy     bool
	consecFails int
	nextProbe   time.Time
	lastErr     string
}

// HealthChecker tracks per-backend readiness by probing /readyz and by
// passive reports from the proxy path. A backend is ejected after
// FailThreshold consecutive failures and re-probed on a jittered
// exponential backoff; one successful probe restores it. Ejection only
// influences replica ORDER — when every replica is ejected the proxy
// still tries them, so a flapping checker can slow requests but never
// fail them on its own.
type HealthChecker struct {
	cfg      HealthConfig
	backends []string

	mu    sync.Mutex
	state map[string]*backendHealth
	rng   *rand.Rand

	stop chan struct{}
	done chan struct{}
}

// NewHealthChecker builds a checker over the backend base URLs.
// Backends start healthy (optimistic: the first probe or proxy failure
// corrects it within Interval) with a probe due immediately.
func NewHealthChecker(backends []string, cfg HealthConfig) *HealthChecker {
	if cfg.Interval <= 0 {
		cfg.Interval = time.Second
	}
	if cfg.ProbeTimeout <= 0 {
		cfg.ProbeTimeout = 2 * time.Second
	}
	if cfg.FailThreshold <= 0 {
		cfg.FailThreshold = 3
	}
	if cfg.BackoffBase <= 0 {
		cfg.BackoffBase = 500 * time.Millisecond
	}
	if cfg.BackoffMax <= 0 {
		cfg.BackoffMax = 15 * time.Second
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	h := &HealthChecker{
		cfg:      cfg,
		backends: append([]string(nil), backends...),
		state:    map[string]*backendHealth{},
		rng:      rand.New(rand.NewSource(1)),
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
	for _, b := range h.backends {
		h.state[b] = &backendHealth{healthy: true}
	}
	return h
}

// Start launches the probe loop; Close stops it.
func (h *HealthChecker) Start() {
	go h.loop()
}

// Close stops the probe loop and waits for it to exit.
func (h *HealthChecker) Close() {
	close(h.stop)
	<-h.done
}

func (h *HealthChecker) loop() {
	defer close(h.done)
	tick := time.NewTicker(h.cfg.Interval / 4)
	defer tick.Stop()
	h.probeDue()
	for {
		select {
		case <-h.stop:
			return
		case <-tick.C:
			h.probeDue()
		}
	}
}

// probeDue probes every backend whose next probe time has arrived.
func (h *HealthChecker) probeDue() {
	now := time.Now()
	var due []string
	h.mu.Lock()
	for _, b := range h.backends {
		if !now.Before(h.state[b].nextProbe) {
			due = append(due, b)
		}
	}
	h.mu.Unlock()
	for _, b := range due {
		h.probe(b)
	}
}

func (h *HealthChecker) probe(backend string) {
	req, err := http.NewRequest(http.MethodGet, backend+"/readyz", nil)
	if err != nil {
		h.ReportFailure(backend, err.Error())
		return
	}
	client := http.Client{Timeout: h.cfg.ProbeTimeout}
	resp, err := client.Do(req)
	if err != nil {
		h.ReportFailure(backend, err.Error())
		return
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		h.ReportFailure(backend, resp.Status)
		return
	}
	h.ReportSuccess(backend)
}

// ReportSuccess resets a backend's failure streak (called by probes and
// by the proxy after a successful exchange).
func (h *HealthChecker) ReportSuccess(backend string) {
	h.mu.Lock()
	defer h.mu.Unlock()
	st, ok := h.state[backend]
	if !ok {
		return
	}
	if !st.healthy {
		h.cfg.Logf("health: backend %s recovered", backend)
	}
	st.healthy = true
	st.consecFails = 0
	st.lastErr = ""
	st.nextProbe = time.Now().Add(h.cfg.Interval)
}

// ReportFailure counts one failure (probe or passive proxy error) and
// ejects the backend at the threshold, scheduling its next probe on a
// jittered exponential backoff.
func (h *HealthChecker) ReportFailure(backend, reason string) {
	h.mu.Lock()
	defer h.mu.Unlock()
	st, ok := h.state[backend]
	if !ok {
		return
	}
	st.consecFails++
	st.lastErr = reason
	if st.healthy && st.consecFails >= h.cfg.FailThreshold {
		st.healthy = false
		h.cfg.Logf("health: backend %s ejected after %d consecutive failures (%s)",
			backend, st.consecFails, reason)
	}
	if st.healthy {
		st.nextProbe = time.Now().Add(h.cfg.Interval)
		return
	}
	// Exponential backoff from the ejection point, jittered ±25%.
	exp := st.consecFails - h.cfg.FailThreshold
	if exp > 20 {
		exp = 20
	}
	backoff := h.cfg.BackoffBase << uint(exp)
	if backoff > h.cfg.BackoffMax {
		backoff = h.cfg.BackoffMax
	}
	jitter := 0.75 + 0.5*h.rng.Float64()
	st.nextProbe = time.Now().Add(time.Duration(float64(backoff) * jitter))
}

// Healthy reports whether backend is currently in service.
func (h *HealthChecker) Healthy(backend string) bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	st, ok := h.state[backend]
	return ok && st.healthy
}

// HealthyCount returns how many backends are in service.
func (h *HealthChecker) HealthyCount() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	n := 0
	for _, st := range h.state {
		if st.healthy {
			n++
		}
	}
	return n
}

// BackendState is one backend's health snapshot for /cluster/state.
type BackendState struct {
	Backend     string `json:"backend"`
	Healthy     bool   `json:"healthy"`
	ConsecFails int    `json:"consec_fails"`
	LastError   string `json:"last_error,omitempty"`
}

// Snapshot returns every backend's state, in backend order.
func (h *HealthChecker) Snapshot() []BackendState {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make([]BackendState, 0, len(h.backends))
	for _, b := range h.backends {
		st := h.state[b]
		out = append(out, BackendState{
			Backend:     b,
			Healthy:     st.healthy,
			ConsecFails: st.consecFails,
			LastError:   st.lastErr,
		})
	}
	return out
}
