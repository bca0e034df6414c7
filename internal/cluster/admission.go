package cluster

import (
	"context"
	"fmt"
	"sync"
	"time"
)

// ErrShed reports that admission control refused a request (HTTP 429
// at the coordinator, before any backend was touched).
type ErrShed struct {
	// RetryAfter is the suggested client backoff.
	RetryAfter time.Duration
	// Reason names which limit shed the request.
	Reason string
}

func (e *ErrShed) Error() string {
	return fmt.Sprintf("admission: %s, retry in %s", e.Reason, e.RetryAfter)
}

// AdmissionConfig bounds the Admission controller.
type AdmissionConfig struct {
	// MaxConcurrent bounds requests proxied upstream at once. Default 16.
	MaxConcurrent int
	// MaxQueue bounds requests waiting for a slot. Once full, batch
	// arrivals are shed outright; interactive arrivals evict the
	// youngest queued batch waiter (shedding IT) before giving up.
	// Default 64.
	MaxQueue int
}

// shedRetryAfter is the backoff suggested on shed.
const shedRetryAfter = time.Second

// Admission is the coordinator's admission controller: a bounded
// priority queue with per-client fair-share accounting. Two properties
// beyond the backends' bare 429 backpressure:
//
//   - class priority: interactive requests (/v1/run) are granted before
//     batch requests (/v1/sweep, /v1/explore) whenever both wait, and
//     when the queue is full an interactive arrival displaces the
//     youngest queued batch waiter rather than being shed;
//   - fair share: among waiters of one class, the next slot goes to the
//     client (token-derived identity) currently holding the FEWEST
//     slots, FIFO breaking ties — so one greedy sweeper queues behind
//     everyone else's first request instead of starving them.
type Admission struct {
	cfg AdmissionConfig

	mu      sync.Mutex
	running int
	held    map[string]int // client → slots held
	queue   []*ticket      // waiters, arrival order
	seq     uint64
}

type ticket struct {
	client      string
	interactive bool
	seq         uint64
	granted     chan error // nil = slot granted; *ErrShed = displaced
}

// NewAdmission builds an admission controller.
func NewAdmission(cfg AdmissionConfig) *Admission {
	if cfg.MaxConcurrent <= 0 {
		cfg.MaxConcurrent = 16
	}
	if cfg.MaxQueue <= 0 {
		cfg.MaxQueue = 64
	}
	return &Admission{cfg: cfg, held: map[string]int{}}
}

// Acquire blocks until a slot is granted, the request is shed, or ctx
// ends. On success the returned release function MUST be called exactly
// once; it frees the slot and hands it to the best waiter.
func (a *Admission) Acquire(ctx context.Context, client string, interactive bool) (release func(), err error) {
	a.mu.Lock()
	if a.running < a.cfg.MaxConcurrent && len(a.queue) == 0 {
		a.grantLocked(client)
		a.mu.Unlock()
		return func() { a.release(client) }, nil
	}
	if len(a.queue) >= a.cfg.MaxQueue {
		if !interactive || !a.displaceLocked() {
			a.mu.Unlock()
			return nil, &ErrShed{RetryAfter: shedRetryAfter, Reason: "admission queue full"}
		}
	}
	t := &ticket{client: client, interactive: interactive, seq: a.seq, granted: make(chan error, 1)}
	a.seq++
	a.queue = append(a.queue, t)
	a.mu.Unlock()

	select {
	case err := <-t.granted:
		if err != nil {
			return nil, err
		}
		return func() { a.release(client) }, nil
	case <-ctx.Done():
		a.mu.Lock()
		for i, q := range a.queue {
			if q == t {
				a.queue = append(a.queue[:i], a.queue[i+1:]...)
				a.mu.Unlock()
				return nil, ctx.Err()
			}
		}
		a.mu.Unlock()
		// Grant raced the cancel: the slot is ours, give it back.
		if err := <-t.granted; err == nil {
			a.release(client)
		}
		return nil, ctx.Err()
	}
}

func (a *Admission) grantLocked(client string) {
	a.running++
	a.held[client]++
}

func (a *Admission) release(client string) {
	a.mu.Lock()
	a.running--
	if a.held[client]--; a.held[client] <= 0 {
		delete(a.held, client)
	}
	a.dispatchLocked()
	a.mu.Unlock()
}

// dispatchLocked grants free slots to the best waiters: interactive
// before batch, then fewest-slots-held client, then FIFO.
func (a *Admission) dispatchLocked() {
	for a.running < a.cfg.MaxConcurrent && len(a.queue) > 0 {
		best := 0
		for i, t := range a.queue {
			if betterTicket(t, a.queue[best], a.held) {
				best = i
			}
		}
		t := a.queue[best]
		a.queue = append(a.queue[:best], a.queue[best+1:]...)
		a.grantLocked(t.client)
		t.granted <- nil
	}
}

// betterTicket orders waiters: class priority, then fair share (fewest
// slots currently held), then arrival order.
func betterTicket(x, y *ticket, held map[string]int) bool {
	if x.interactive != y.interactive {
		return x.interactive
	}
	if held[x.client] != held[y.client] {
		return held[x.client] < held[y.client]
	}
	return x.seq < y.seq
}

// displaceLocked sheds the youngest queued batch waiter to make room
// for an interactive arrival. Reports whether room was made.
func (a *Admission) displaceLocked() bool {
	for i := len(a.queue) - 1; i >= 0; i-- {
		if t := a.queue[i]; !t.interactive {
			a.queue = append(a.queue[:i], a.queue[i+1:]...)
			t.granted <- &ErrShed{RetryAfter: shedRetryAfter, Reason: "displaced by interactive request"}
			return true
		}
	}
	return false
}

// Depth returns the current queue length (metrics gauge).
func (a *Admission) Depth() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return len(a.queue)
}

// Running returns the slots currently held (metrics gauge).
func (a *Admission) Running() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.running
}
