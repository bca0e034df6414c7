package pipeline

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"sync"
)

// Lane-level scheduling of batched drains (DESIGN.md §20). A drain is
// one Source replayed through a shared decode window into a set of
// timing lanes. Lanes of a drain are independent between window refills,
// so the unit of work is not the drain but one lane's run up to the
// window frontier: W workers each take any queued lane, run it until it
// parks at the frontier or finishes, and take the next. The worker that
// retires the last running lane of a drain refills that drain's window
// and requeues its live lanes — the lockstep invariant (a refill happens
// only once every live lane sits at the frontier) with no barrier wait.
//
// Each worker owns a lane queue; a requeued lane goes back to the
// worker that last ran it, and an idle worker steals from the back of
// the longest queue, so a lane stays on one core unless the load needs
// it elsewhere. Drains are admitted largest first, at most W live at
// once, so live lane state stays within W drains' worth.
//
// Lanes read the window only while none of their drain's lanes can
// refill it, and the scheduler's mutex orders every refill before the
// runs that consume it, so a lane sees the same events at the same
// points whichever worker runs it: Stats do not depend on W.
//
// A one-lane drain has nothing to interleave: the worker that admits it
// runs it as Pipeline.Run, the one-lane drain, without rounds.
//
// RunDrains owns the lanes: it builds each drain's with New when it
// admits the drain and returns them to the lane free list (freeLanes),
// for the next New to reuse, once the drain's Done has returned — or,
// when the call fails or is cancelled, once every worker has exited. A
// multi-lane drain's window goes back to its free list (freeWindows)
// with the lanes.

// A Drain is one Source replayed into a set of timing lanes.
type Drain struct {
	// Name prefixes the drain's simulation errors.
	Name string
	// Work orders admission: drains start largest first. Trace events ×
	// lanes is the intended measure; only the order matters.
	Work int64
	// Open returns the drain's event source and one Config per lane. A
	// worker calls it when it admits the drain and builds the lanes
	// then, so lane state, and whatever Open does to produce the
	// source, exists only while the drain is live.
	Open func() (Source, []Config, error)
	// Done, if set, receives the drain's Stats, one per lane in Config
	// order, and the lanes' summed SkipStats, on the worker that
	// finished the drain.
	Done func(stats []Stats, skip SkipStats)
}

// RunDrains runs every drain to completion on up to workers goroutines
// (GOMAXPROCS when workers ≤ 0), the calling goroutine included. On the
// first error, or once ctx is done, it stops starting lane runs, waits
// for those in progress and returns the error. A lane run ends within
// one chunk of events, except a one-lane drain's, which is the whole
// drain; lanes with a Config.Context also poll it inside the run.
func RunDrains(ctx context.Context, drains []Drain, workers int) error {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	s := &scheduler{ctx: ctx, workers: workers, queues: make([]laneQueue, workers),
		admitted: make([]*liveDrain, 0, len(drains))}
	s.wake.L = &s.mu
	s.pending = make([]*Drain, len(drains))
	for i := range drains {
		s.pending[i] = &drains[i]
	}
	sort.SliceStable(s.pending, func(a, b int) bool { return s.pending[a].Work > s.pending[b].Work })

	var wg sync.WaitGroup
	for id := 1; id < workers; id++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.work(id)
		}()
	}
	s.work(0)
	wg.Wait()
	for _, d := range s.admitted {
		d.release() // the lanes and window of drains a failure or cancel cut short
	}
	return s.err
}

// laneRef names one lane of a live drain.
type laneRef struct {
	d    *liveDrain
	lane int
}

// laneQueue is a growable ring of lanes: its owner takes from the
// front, thieves from the back. It grows only past the most lanes it
// has ever held, so steady-state rounds do not allocate.
type laneQueue struct {
	buf   []laneRef
	head  int
	count int
}

func (q *laneQueue) push(r laneRef) {
	if q.count == len(q.buf) {
		buf := make([]laneRef, max(8, 2*len(q.buf)))
		for i := 0; i < q.count; i++ {
			buf[i] = q.buf[(q.head+i)%len(q.buf)]
		}
		q.buf, q.head = buf, 0
	}
	q.buf[(q.head+q.count)%len(q.buf)] = r
	q.count++
}

func (q *laneQueue) popFront() laneRef {
	r := q.buf[q.head]
	q.buf[q.head] = laneRef{}
	q.head = (q.head + 1) % len(q.buf)
	q.count--
	return r
}

func (q *laneQueue) popBack() laneRef {
	q.count--
	i := (q.head + q.count) % len(q.buf)
	r := q.buf[i]
	q.buf[i] = laneRef{}
	return r
}

// liveDrain is an admitted drain's scheduling state. Between a round's
// requeue and the retirement of its last running lane, workers touch
// only their own lane's entries, under the scheduler's mutex; the
// retiring worker then owns the drain alone until it requeues it.
type liveDrain struct {
	spec    *Drain
	lanes   []*Pipeline // nil once released
	w       *window
	out     []Stats
	done    []bool // lane finished
	home    []int  // worker that last ran the lane
	live    []int  // unfinished lanes, compacted at each round's end
	running int    // lanes of this round not yet parked or finished
}

type scheduler struct {
	mu      sync.Mutex
	wake    sync.Cond // an idle worker waits here for lanes, a drain to admit, or the end
	waiting int

	ctx      context.Context
	workers  int
	queues   []laneQueue
	pending  []*Drain     // not yet admitted, largest work first
	admitted []*liveDrain // every drain admitted, for RunDrains to release
	live     int          // admitted, unfinished drains
	err      error
}

// work is one worker's loop: its own queue first, then a new drain while
// fewer than workers are live, then a lane stolen from another queue.
func (s *scheduler) work(id int) {
	s.mu.Lock()
	for s.err == nil {
		if err := s.ctx.Err(); err != nil {
			s.fail(err)
		} else if q := &s.queues[id]; q.count > 0 {
			s.runLane(id, q.popFront())
		} else if len(s.pending) > 0 && s.live < s.workers {
			s.admit(id)
		} else if v := s.victim(id); v >= 0 {
			s.runLane(id, s.queues[v].popBack())
		} else if s.live == 0 && len(s.pending) == 0 {
			break
		} else {
			s.waiting++
			s.wake.Wait()
			s.waiting--
		}
	}
	// Not deferred: a lane's panic unwinds with the mutex released and
	// must not turn into a double unlock.
	s.mu.Unlock()
}

// victim returns the worker with the longest queue other than id, or -1
// when every other queue is empty.
func (s *scheduler) victim(id int) int {
	v := -1
	for i := range s.queues {
		if i != id && s.queues[i].count > 0 && (v < 0 || s.queues[i].count > s.queues[v].count) {
			v = i
		}
	}
	return v
}

// fail records the first error and wakes every idle worker to exit.
func (s *scheduler) fail(err error) {
	if s.err == nil {
		s.err = err
	}
	s.wake.Broadcast()
}

// signal wakes up to n idle workers.
func (s *scheduler) signal(n int) {
	for i := 0; i < n && i < s.waiting; i++ {
		s.wake.Signal()
	}
}

// admit opens the largest pending drain, builds its lanes, primes its
// window and queues every lane on worker id, or runs a one-lane drain
// outright. Called with s.mu held; Open, the lanes' New and the first
// refill run without it.
func (s *scheduler) admit(id int) {
	d := &liveDrain{spec: s.pending[0]}
	s.pending = s.pending[1:]
	s.admitted = append(s.admitted, d)
	s.live++
	s.mu.Unlock()
	src, err := d.open()
	if err == nil && len(d.lanes) == 1 {
		s.runSolo(d, src)
		return
	}
	if err == nil {
		n := len(d.lanes)
		d.w = start(src, d.lanes...)
		d.out, d.done, d.home, d.live = make([]Stats, n), make([]bool, n), make([]int, n), make([]int, n)
		for i := range d.live {
			d.live[i], d.home[i] = i, id
		}
		d.w.refill()
		err = d.w.err
	}
	s.mu.Lock()
	if err != nil {
		s.fail(d.spec.wrap(err))
		return
	}
	s.requeue(d)
}

// open calls the drain's Open and builds one lane per Config.
func (d *liveDrain) open() (Source, error) {
	src, cfgs, err := d.spec.Open()
	if err != nil {
		return nil, err
	}
	if len(cfgs) == 0 {
		// No lane would ever end the drain's first round.
		return nil, fmt.Errorf("pipeline: a drain needs at least one Config")
	}
	d.lanes = make([]*Pipeline, 0, len(cfgs))
	for i, cfg := range cfgs {
		p, err := New(cfg)
		if err != nil {
			return nil, fmt.Errorf("pipeline: batch lane %d: %w", i, err)
		}
		d.lanes = append(d.lanes, p)
	}
	return src, nil
}

// finish hands a completed drain's Stats and its lanes' summed
// SkipStats to Done, then releases the lanes and the window.
func (d *liveDrain) finish(stats []Stats) {
	if d.spec.Done != nil {
		var skip SkipStats
		for _, p := range d.lanes {
			skip.Add(p.SkipStats())
		}
		d.spec.Done(stats, skip)
	}
	d.release()
}

// release returns the drain's lanes to the lane free list and its
// window, if it has one, to the window free list.
func (d *liveDrain) release() {
	for _, p := range d.lanes {
		p.release()
	}
	d.lanes = nil
	if d.w != nil {
		putWindow(d.w)
		d.w = nil
	}
}

// runSolo runs a one-lane drain to its end on the worker that admitted
// it. With no other lane to interleave there are no rounds to schedule,
// so the drain is Pipeline.Run itself; it stops early only at its
// lane's Config.Context poll. Called without s.mu; returns with it held.
func (s *scheduler) runSolo(d *liveDrain, src Source) {
	st, err := d.lanes[0].Run(src)
	if err == nil {
		d.finish([]Stats{st})
	}
	s.mu.Lock()
	if err != nil {
		s.fail(d.spec.wrap(err))
		return
	}
	s.retire()
}

// requeue starts a round: every live lane goes back to the worker that
// last ran it. Called with s.mu held.
func (s *scheduler) requeue(d *liveDrain) {
	d.running = len(d.live)
	for _, i := range d.live {
		s.queues[d.home[i]].push(laneRef{d, i})
	}
	s.signal(len(d.live))
}

// runLane advances one lane to the window frontier or to its end, then
// retires it from the round. Called with s.mu held; the lane runs
// without it.
func (s *scheduler) runLane(id int, r laneRef) {
	d := r.d
	p := d.lanes[r.lane]
	s.mu.Unlock()
	fin, err := p.advance()
	s.mu.Lock()
	if s.err != nil {
		return
	}
	if err != nil {
		s.fail(d.spec.wrap(fmt.Errorf("pipeline: batch lane %d: %w", r.lane, err)))
		return
	}
	d.home[r.lane] = id
	if fin {
		d.done[r.lane] = true
		d.out[r.lane] = p.stats
		p.win = nil
		p.icShared = false
	}
	if d.running--; d.running == 0 {
		s.endRound(d)
	}
}

// endRound is run by the worker that retired a drain's last running
// lane, so no other worker holds any of the drain's lanes: it drops the
// finished lanes and either completes the drain or refills its window
// and starts the next round. Called with s.mu held; the refill and the
// Done callback run without it.
func (s *scheduler) endRound(d *liveDrain) {
	s.mu.Unlock()
	n := 0
	for _, i := range d.live {
		if !d.done[i] {
			d.live[n] = i
			n++
		}
	}
	d.live = d.live[:n]
	if n == 0 {
		d.finish(d.out)
		s.mu.Lock()
		s.retire()
		return
	}
	d.w.refill()
	s.mu.Lock()
	if err := d.spec.wrap(d.w.err); err != nil {
		s.fail(err)
		return
	}
	if s.err == nil {
		s.requeue(d)
	}
}

// retire counts a completed drain out of the live set. Called with s.mu
// held.
func (s *scheduler) retire() {
	s.live--
	if s.live == 0 && len(s.pending) == 0 {
		s.wake.Broadcast() // nothing left: idle workers exit
	} else if len(s.pending) > 0 {
		s.signal(1) // room for the next drain
	}
}

// wrap prefixes err with the drain's Name.
func (d *Drain) wrap(err error) error {
	if err == nil || d.Name == "" {
		return err
	}
	return fmt.Errorf("%s: %w", d.Name, err)
}
