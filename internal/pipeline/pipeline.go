package pipeline

import (
	"context"
	"fmt"
	"math/bits"
	"runtime"
	"time"

	"specguard/internal/cache"
	"specguard/internal/interp"
	"specguard/internal/isa"
	"specguard/internal/machine"
	"specguard/internal/predict"
)

// Source supplies the committed dynamic instruction stream of a
// predecoded program: *interp.Machine and *interp.TaintMachine execute
// one live, *trace.Reader replays a captured one. Only the decode
// window reads it, straight into its reused event slots, and it reads
// each event's static operands from Code at the event's Flat index.
type Source interface {
	// NextInto fills *ev with the next committed instruction event, or
	// returns ok=false at end of program.
	NextInto(ev *interp.Event) (ok bool, err error)
	// Code is the predecoded program whose instructions the events
	// name.
	Code() *interp.Code
}

// Config assembles one simulation.
type Config struct {
	Model     *machine.Model
	Predictor predict.Predictor
	// DisableICache / DisableDCache model ideal caches (used by tests
	// and ablations; the paper's runs keep both enabled).
	DisableICache bool
	DisableDCache bool
	// Watchdog aborts if no instruction commits for this many cycles
	// (simulator-bug backstop). Defaults to 100000.
	Watchdog int64
	// TrackBranchSites records per-site misprediction counts in
	// Stats.SiteMispredicts (off by default: it costs a map op per
	// mispredict).
	TrackBranchSites bool
	// TrackLeaks counts secret-indexed memory accesses in
	// Stats.SecretAccesses / Stats.SpecSecretAccesses. It needs an event
	// stream whose leak fields are populated (an interp.TaintMachine
	// source); on ordinary sources it counts zeros. Off by default:
	// golden Stats stay byte-identical.
	TrackLeaks bool
	// SelfCheck audits the hot-loop machinery (completion wheel, ready
	// queues, disambiguation table, ROB free list, rename pools) at the
	// end of every cycle — and the quiescence predicate at every
	// fast-forward — and aborts the run on the first violation. It
	// costs a full scan of the in-flight state per cycle; the
	// differential fuzzer enables it, production runs leave it off.
	SelfCheck bool
	// NoCycleSkip disables the quiescence fast-forward (skip.go,
	// DESIGN.md §18): the hot loop then grinds every dead cycle
	// individually. Stats are byte-identical either way — the flag
	// exists for differential testing (the fuzz oracle runs every
	// generated program both ways) and for isolating skip bugs.
	NoCycleSkip bool
	// Context, when set, is polled cooperatively in the hot loop (every
	// cancelCheckMask+1 cycles plus once per quiescence fast-forward,
	// so the per-cycle cost is a nil check):
	// Run aborts with ctx.Err() once it is cancelled. Timing statistics
	// up to the abort are unaffected — the check touches no
	// architectural or timing state — so completed runs remain
	// bit-identical with or without a Context.
	Context context.Context
}

// cancelCheckMask spaces the hot loop's polls: the done channel is
// inspected, and the clock read for a yield (yieldEvery), when
// cycle&cancelCheckMask == 0, i.e. every 4096 cycles (tens of
// microseconds of simulated work), keeping cancellation latency
// negligible next to any realistic request timeout.
const cancelCheckMask = 4095

// yieldEvery spaces a lane's yields: a poll yields only once this much
// time has passed since the lane's last yield (or the start of its
// run), so a lane holds its processor about a millisecond at a time —
// far under Go's 10 ms async preemption — at the cost of one clock
// read per poll. A Gosched at every poll cost CPU: it sends the lane
// to the global run queue, often onto another core.
const yieldEvery = time.Millisecond

// yield is runtime.Gosched, a variable so tests can count its calls.
var yield = runtime.Gosched

// clock reads the monotonic clock (time since clockStart), a variable
// so tests can decide when a lane yields.
var clock = func() time.Duration { return time.Since(clockStart) }

var clockStart = time.Now()

type entryState uint8

const (
	stDispatched entryState = iota
	stIssued
	stCompleted
)

// entry is one reorder-buffer (active list) slot, stored by value in
// the ROB ring at buf[seq&mask] (see ring). Slots are re-initialized
// in place at dispatch; depsOver keeps its capacity across
// incarnations.
//
// An entry caches only the event fields the back-end stages consume
// (opcode, fetch address, effective address and the derived flags)
// instead of the full 100+-byte interp.Event: the decode window is
// shared by every lane of a drain and must not be copied per lane.
type entry struct {
	seq   int64
	queue Queue
	unit  isa.UnitClass
	state entryState

	op        isa.Op
	isCond    bool // op.IsCondBranch(), consulted at complete and commit
	throttle  bool // predicted-taken cond branch: holds the fetch throttle until it resolves
	taken     bool
	annulled  bool
	memAccess bool // IsMem && !Annulled
	addr      uint64
	memAddr   int64

	complete int64 // valid once issued
	qEnter   int64 // cycle the entry took its dispatch-queue slot

	inQueue bool // still holding its dispatch-queue slot
	renamed bool // holds an integer/fp rename register until commit
	fpDest  bool

	// pending counts not-yet-completed producers; the entry becomes
	// ready to issue when it reaches zero. deps is the reverse edge:
	// consumers to wake when this entry completes, stored as seq
	// deltas (a dependent is younger than its producer by less than
	// the active-list depth, so a uint16 always fits on real models;
	// anything wider spills to the absolute-seq overflow slice).
	pending  int32
	ndeps    uint8
	deps     [6]uint16
	depsOver []int64
}

// runState is the per-run cycle-local bookkeeping. It lives on the
// Pipeline rather than on a loop's stack because a lane's run is split
// into calls of advance: the lane parks mid-fetch whenever it reaches
// the decode-window frontier and resumes exactly there after the next
// refill.
type runState struct {
	queueCap   [numQueues]int
	unitCap    [isa.NumUnitClasses]int
	queueUsed  [numQueues]int
	intRenames int
	fpRenames  int

	traceDone      bool
	fetchStalledOn int64 // seq of the branch fetch waits on, -1 when none
	fetchResumeAt  int64 // cycle fetch may resume (icache/mispredict)
	lastCommit     int64
	cycle          int64

	fetched int  // instructions fetched so far this cycle (resume point)
	inFetch bool // lane is parked mid-fetch waiting for the window to refill

	// unconfirmed counts predicted-taken conditional branches in flight
	// (fetched, not yet resolved). When Model.ThrottledFetchWidth is
	// positive and this is non-zero, fetch runs at the throttled width —
	// the variable fetch-rate front end. The count moves only at fetch
	// (+1) and branch completion (−1), both outside the mid-fetch park
	// window, so a parked lane resumes with the width it started the
	// group with.
	unconfirmed int

	// readyMask has bit u set when ready[u] may be non-empty, so the
	// issue stage visits only live unit classes instead of scanning all
	// of them every cycle. Bits are set on push and cleared by issue
	// when it drains a queue; a stale set bit is harmless (issue
	// re-checks emptiness), a stale clear bit would lose instructions
	// and is audited by the self-check.
	readyMask uint32

	done      <-chan struct{} // Config.Context cancellation, nil when unset
	lastYield time.Duration   // clock at the lane's last yield or attach
}

// Pipeline is one configured simulator instance: one lane of a decode
// window (window.go). Run drains a Source with the pipeline as the
// window's only lane; a multi-lane drain (RunDrains) attaches several
// pipelines to one window.
// The hot-loop machinery (ROB ring, fetch buffer, completion wheel,
// ready queues) lives on the struct and is recycled across Run calls,
// and Run takes its window from a shared free list, so a warmed
// Pipeline simulates in steady state without allocating.
type Pipeline struct {
	cfg    Config
	model  *machine.Model
	pred   predict.Predictor
	predTB *predict.TwoBit // set when pred is a *TwoBit: devirtualized hot path
	icache *cache.Cache
	dcache *cache.Cache

	stats Stats
	rs    runState
	skip  SkipStats // fast-forward counters, reset per run (not part of Stats)

	rob     *ring
	fbuf    idxRing // fetch buffer: window indices awaiting dispatch
	wheel   wheel
	ready   [isa.NumUnitClasses]readyQ
	latTab  [256]int16 // raw m.Latency per opcode; clamped at issue after miss penalties
	leakWin int32      // model.SpecWindow(), precomputed for the leak counters

	win      *window // the drain's decode window, nil between runs
	cur      int64   // next window index this lane will fetch
	icShared bool    // consume window.ic bits instead of the private icache
}

// New validates cfg and returns a simulator. It reuses the buffers of a
// lane RunDrains has released when there is one, preferring one with
// cfg's active list and cache geometry: its caches are reset cold, and
// everything else a run reads is reset when the run attaches, so its
// Stats are those of a new lane.
func New(cfg Config) (*Pipeline, error) {
	if cfg.Model == nil {
		return nil, fmt.Errorf("pipeline: Config.Model is required")
	}
	if cfg.Predictor == nil {
		return nil, fmt.Errorf("pipeline: Config.Predictor is required")
	}
	if cfg.Watchdog == 0 {
		cfg.Watchdog = 100000
	}
	m := cfg.Model
	p, ok := freeLanes.get(func(p *Pipeline) bool { return p.fits(&cfg) })
	if !ok {
		p = new(Pipeline)
	}
	p.cfg, p.model, p.pred = cfg, m, cfg.Predictor
	p.predTB, _ = cfg.Predictor.(*predict.TwoBit)
	ic, dc := p.icache, p.dcache
	p.icache, p.dcache = nil, nil
	if !cfg.DisableICache {
		p.icache = coldCache(ic, m.ICacheBytes, m.CacheLineBytes)
	}
	if !cfg.DisableDCache {
		p.dcache = coldCache(dc, m.DCacheBytes, m.CacheLineBytes)
	}
	for op := 0; op < len(p.latTab); op++ {
		p.latTab[op] = int16(m.Latency(isa.Op(op)))
	}
	p.leakWin = int32(m.SpecWindow())
	return p, nil
}

// freeLanes recycles released lanes: a lane's ROB, fetch buffer,
// completion wheel, ready queues and caches are ~30 KB, which a sweep
// would otherwise allocate per lane and a one-cell run per call. A drain
// holds at most MaxBatchLanes lanes and at most GOMAXPROCS drains run at
// once, so the list keeps that many.
var freeLanes = freeList[*Pipeline]{perProc: MaxBatchLanes}

// release drops what the lane's caller owns (predictor, model, context,
// window, Stats) and puts the lane's buffers on the free list.
func (p *Pipeline) release() {
	p.cfg, p.model, p.pred, p.predTB = Config{}, nil, nil, nil
	p.stats, p.skip = Stats{}, SkipStats{}
	p.rs.done = nil
	p.win, p.icShared = nil, false
	freeLanes.put(p)
}

// fits reports whether a released lane's buffers suit cfg as they are:
// the same active list and, for each cache cfg enables, the same
// geometry.
func (p *Pipeline) fits(cfg *Config) bool {
	m := cfg.Model
	return p.rob != nil && p.rob.cap == m.ActiveList &&
		(cfg.DisableICache || shaped(p.icache, m.ICacheBytes, m.CacheLineBytes)) &&
		(cfg.DisableDCache || shaped(p.dcache, m.DCacheBytes, m.CacheLineBytes))
}

// maxLatency bounds the schedule horizon for the completion wheel: the
// longest unit latency plus the cache-miss penalty.
func maxLatency(m *machine.Model) int {
	lat := 1
	for _, l := range []int{m.AluLat, m.ShiftLat, m.LdStLat, m.FPAddLat,
		m.FPMulLat, m.FPDivLat, m.MulLat, m.DivLat, m.BranchLat} {
		if l > lat {
			lat = l
		}
	}
	return lat + m.CacheMissPenalty
}

// attach resets the machinery, statistics and cycle-local bookkeeping
// for a fresh simulation and makes the pipeline a lane of w, fetching
// from its first event. Caches and predictor state persist across runs.
func (p *Pipeline) attach(w *window) {
	m := p.model
	p.rs = runState{
		intRenames:     m.RenameRegs,
		fpRenames:      m.RenameRegs,
		fetchStalledOn: -1,
	}
	p.rs.queueCap = [numQueues]int{
		QInt:    m.IntQueue,
		QAddr:   m.AddrQueue,
		QFP:     m.FPQueue,
		QBranch: m.BranchStack,
	}
	for u := isa.UnitClass(0); u < isa.NumUnitClasses; u++ {
		p.rs.unitCap[u] = m.UnitCount(u)
	}
	if p.cfg.Context != nil {
		p.rs.done = p.cfg.Context.Done()
	}
	p.rs.lastYield = clock()
	if p.rob == nil || p.rob.cap != m.ActiveList {
		p.rob = newRing(m.ActiveList)
	} else {
		p.rob.reset()
	}
	p.fbuf.init(2 * m.IssueWidth) // the fetch-to-dispatch decoupling buffer
	p.wheel.init(maxLatency(m))
	for u := range p.ready {
		p.ready[u].init(m.ActiveList)
	}
	p.stats = Stats{}
	p.skip = SkipStats{}
	p.win = w
	p.cur = 0
	p.icShared = false
	if p.cfg.SelfCheck {
		w.selfCheck = true
	}
}

// producer resolves a possibly-stale recorded sequence number to its
// in-flight, not-yet-completed entry, or ok=false. The ROB slot for a
// seq keeps that seq (in the completed state) after commit until a
// younger instruction is dispatched into it, so the seq/state pair is
// a complete staleness fence: a mismatching seq means the slot was
// re-dispatched, a completed state means the producer imposes no wait
// — exactly what the old per-issue rescan concluded for it every
// cycle.
func (p *Pipeline) producer(seq int64) (*entry, bool) {
	if seq < 0 {
		return nil, false
	}
	e := p.rob.at(seq)
	if e.seq != seq || e.state == stCompleted {
		return nil, false
	}
	return e, true
}

// depend adds a producer edge from prodSeq to consumer c when prodSeq
// still names an in-flight, uncompleted instruction. The edge is
// recorded on the producer as a seq delta (or in its overflow list),
// so completion wakes dependents without storing pointers anywhere.
func (p *Pipeline) depend(c *entry, prodSeq int64) {
	prod, ok := p.producer(prodSeq)
	if !ok {
		return
	}
	c.pending++
	if d := c.seq - prodSeq; int(prod.ndeps) < len(prod.deps) && d <= 0xFFFF {
		prod.deps[prod.ndeps] = uint16(d)
		prod.ndeps++
	} else {
		prod.depsOver = append(prod.depsOver, c.seq)
	}
}

// Run simulates the entire stream from src and returns the statistics.
// It is the one-lane drain (RunDrains runs every one-lane drain
// through it): the pipeline takes a decode window from the free list,
// attaches as its only lane, and alternates window refills with its
// lane loop until the trace ends. A fresh Pipeline's Stats are
// byte-identical to those of the same Config's lane in any drain over
// the same stream.
//
// The loop is event-driven: instead of scanning the whole active list
// twice per cycle, completion drains one timing-wheel bucket and issue
// pops per-unit ready queues fed by pending-producer counters. Both
// orderings reproduce the original oldest-first scans exactly, so Stats
// are bit-identical to the scanning implementation (pinned by the
// golden-stats test in internal/bench).
func (p *Pipeline) Run(src Source) (Stats, error) {
	w := start(src, p)
	var err error
	for done := false; !done && err == nil; {
		w.refill()
		if err = w.err; err == nil {
			done, err = p.advance()
		}
	}
	p.win = nil
	putWindow(w)
	return p.stats, err
}

// advance runs the lane until it finishes, fails, or needs an event
// beyond the window frontier — at which point it parks mid-fetch
// (rs.inFetch) and resumes exactly there on the next call, after the
// window has refilled.
func (p *Pipeline) advance() (bool, error) {
	m := p.model
	rs := &p.rs
	s := &p.stats
	w := p.win
	for {
		if !rs.inFetch {
			// ---- Cooperative cancellation (see Config.Context), and a
			// yield every yieldEvery: a lane otherwise holds its
			// processor until Go's 10 ms async preemption, so a busy
			// simulation would stall the HTTP handlers and timers
			// sharing it. ----
			if rs.cycle&cancelCheckMask == 0 {
				if now := clock(); now-rs.lastYield >= yieldEvery {
					rs.lastYield = now
					yield()
				}
				if rs.done != nil {
					select {
					case <-rs.done:
						return false, fmt.Errorf("pipeline: run cancelled at cycle %d: %w", rs.cycle, p.cfg.Context.Err())
					default:
					}
				}
			}
			p.stageComplete()
			p.stageCommit()
			p.stageIssue()
			p.batchDispatch()
			rs.fetched = 0
		}
		rs.inFetch = false

		// ---- Fetch from the window: up to the fetch width, stopping at
		// predicted-taken branches, stalls and I-cache misses. ----
		if !rs.traceDone && rs.fetchStalledOn < 0 && rs.cycle >= rs.fetchResumeAt {
			width := p.fetchWidth()
			for ; rs.fetched < width && !p.fbuf.full(); rs.fetched++ {
				if p.cur == w.frontier {
					if !w.eof {
						// Park mid-fetch until the window refills.
						rs.inFetch = true
						return false, nil
					}
					rs.traceDone = true
					break
				}
				idx := p.cur
				slot := &w.slots[idx&int64(len(w.slots)-1)]
				p.cur++
				if p.cfg.TrackLeaks && slot.ev.AddrSecret {
					// Committed secret-indexed access, counted once per
					// fetched event.
					s.SecretAccesses++
				}
				var icMiss bool
				if p.icShared {
					icMiss = slot.icMiss
				} else if p.icache != nil {
					icMiss = !p.icache.Access(slot.ev.Addr)
				}
				if slot.ctl != predict.ClassNone && p.batchPredict(slot, idx) {
					idx |= throttleIdxBit
				}
				p.fbuf.push(idx)
				if icMiss {
					// The missing instruction still enters the buffer (its
					// line is now resident); fetch pauses after it.
					s.ICacheMisses++
					rs.fetchResumeAt = rs.cycle + int64(m.CacheMissPenalty)
					break
				}
				if rs.fetchStalledOn >= 0 {
					break // fetch waits for this control transfer
				}
				if slot.fetchBreak {
					break // taken-branch/jump fetch break (redirect next cycle)
				}
			}
		} else if !rs.traceDone && (rs.fetchStalledOn >= 0 || rs.cycle < rs.fetchResumeAt) {
			s.FetchStallCycles++
		}

		done, err := p.stageEndOfCycle()
		if err != nil {
			return false, err
		}
		if done {
			s.Cycles = rs.cycle
			s.Predictor = p.pred.Stats()
			return true, nil
		}
	}
}

// fetchWidth returns this cycle's fetch bound: the throttled width
// while any predicted-taken conditional branch is unconfirmed, else the
// full issue width. With ThrottledFetchWidth == 0 (the default) this is
// always IssueWidth, so fixed-rate models are untouched. A mid-group
// predicted-taken branch cannot extend the group past itself — a
// correctly predicted taken branch hits the taken-branch fetch break
// and a mispredicted one stalls fetch — so sampling the width once at
// the start of the group is exact.
func (p *Pipeline) fetchWidth() int {
	if t := p.model.ThrottledFetchWidth; t > 0 && p.rs.unconfirmed > 0 {
		return t
	}
	return p.model.IssueWidth
}

// batchPredict is the fetch stage's prediction step for a control
// transfer in window slot idx: it consults the lane's predictor and
// records stalls and mispredicts. The sequence number is the window
// index, so lanes agree on instruction identity by construction. It
// reports whether the slot is a predicted-taken conditional branch (the
// caller tags the queued index with throttleIdxBit so dispatch can hand
// the flag to the entry).
func (p *Pipeline) batchPredict(slot *winEvent, idx int64) (throttle bool) {
	var out predict.Outcome
	if tb := p.predTB; tb != nil {
		out = tb.PredictClass(slot.ctl, slot.ev.Addr, slot.ev.Taken)
	} else {
		out = p.pred.Predict(slot.ev.Addr, slot.op, slot.ev.Taken)
	}
	if !out.Stall && out.PredictTaken && slot.isCond {
		// Predicted-taken conditional branch: under the variable
		// fetch-rate front end, fetch narrows until it resolves. The
		// count is kept even at full width so enabling the throttle is
		// purely a fetch-bound change.
		throttle = true
		p.rs.unconfirmed++
	}
	switch {
	case out.Stall:
		p.stats.IndirectOps++
		p.rs.fetchStalledOn = idx
	case slot.isCond && out.PredictTaken != slot.ev.Taken:
		p.stats.Mispredicts++
		if p.cfg.TrackBranchSites && slot.ev.BranchSite != "" {
			if p.stats.SiteMispredicts == nil {
				p.stats.SiteMispredicts = make(map[string]int64)
			}
			p.stats.SiteMispredicts[slot.ev.BranchSite]++
		}
		if p.cfg.TrackLeaks {
			p.countWrongPathLeaks(slot.ev.WrongPath)
		}
		p.rs.fetchStalledOn = idx
	}
	return throttle
}

// stageComplete finishes execution and resolves branches: it drains
// this cycle's wheel bucket in program order and wakes dependents whose
// last producer just finished.
func (p *Pipeline) stageComplete() {
	rs := &p.rs
	for _, seq := range p.wheel.take(rs.cycle) {
		e := p.rob.at(seq)
		e.state = stCompleted
		if e.inQueue && e.queue == QBranch {
			// Branch-stack entries are held until resolution. The
			// occupancy integral is settled on release (see
			// stageEndOfCycle): the slot was counted each cycle from
			// dispatch up to (not including) this one.
			rs.queueUsed[QBranch]--
			e.inQueue = false
			p.stats.QueueOccupancy[QBranch] += rs.cycle - e.qEnter
		}
		if e.throttle {
			rs.unconfirmed-- // the branch resolved; fetch may widen next cycle
		}
		if e.isCond {
			// Devirtualized for the common TwoBit predictor; the opcode's
			// cached class spares re-deriving it per resolution.
			if tb := p.predTB; tb != nil {
				tb.UpdateClass(opMetaTab[e.op].ctl, e.addr, e.taken)
			} else {
				p.pred.Update(e.addr, e.op, e.taken)
			}
		}
		if rs.fetchStalledOn == seq {
			rs.fetchStalledOn = noSeq
			resume := rs.cycle + 1
			// Only a mispredicted conditional branch pays the
			// recovery penalty; an indirect transfer merely
			// restarts fetch (correctly predicted branches never
			// set the stall in the first place).
			if e.isCond {
				resume += int64(p.model.MispredictPenalty)
			}
			if resume > rs.fetchResumeAt {
				rs.fetchResumeAt = resume
			}
		}
		// Wake dependents. They are strictly younger, hence still in
		// the ROB, so the delta-encoded seqs resolve in one indexed
		// load each.
		for i := 0; i < int(e.ndeps); i++ {
			c := p.rob.at(seq + int64(e.deps[i]))
			if c.pending--; c.pending == 0 {
				p.ready[c.unit].pushWake(c.seq)
				rs.readyMask |= 1 << c.unit
			}
		}
		e.ndeps = 0
		if len(e.depsOver) > 0 {
			for _, cs := range e.depsOver {
				c := p.rob.at(cs)
				if c.pending--; c.pending == 0 {
					p.ready[c.unit].pushWake(cs)
					rs.readyMask |= 1 << c.unit
				}
			}
			e.depsOver = e.depsOver[:0]
		}
	}
}

// stageCommit retires completed instructions in order, up to IssueWidth
// per cycle.
func (p *Pipeline) stageCommit() {
	rs := &p.rs
	s := &p.stats
	committed := 0
	for p.rob.len() > 0 && committed < p.model.IssueWidth {
		e := p.rob.front()
		if e.state != stCompleted {
			break
		}
		// The slot keeps e's remains (seq, completed state) until a
		// younger instruction is dispatched into it — that is the
		// staleness fence every recorded seq reference relies on.
		p.rob.popFront()
		committed++
		s.Committed++
		rs.lastCommit = rs.cycle
		if e.annulled {
			s.Annulled++
		}
		if e.isCond {
			s.CondBranches++
		}
		if e.renamed {
			if e.fpDest {
				rs.fpRenames++
			} else {
				rs.intRenames++
			}
		}
	}
}

// stageIssue starts execution oldest-first, out of order, bounded by
// per-unit capacity.
func (p *Pipeline) stageIssue() {
	rs := &p.rs
	s := &p.stats
	// Ascending bit order = ascending unit-class order, so the visit
	// sequence matches the plain scan exactly (empty classes issue
	// nothing either way and can never hit a positive cap).
	for rem := rs.readyMask; rem != 0; rem &= rem - 1 {
		u := isa.UnitClass(bits.TrailingZeros32(rem))
		rq := &p.ready[u]
		if rq.len() == 0 {
			rs.readyMask &^= 1 << u
			continue
		}
		issued := 0
		for issued < rs.unitCap[u] && rq.len() > 0 {
			e := p.rob.at(rq.pop())
			lat := int(p.latTab[e.op])
			if e.memAccess && p.dcache != nil {
				if !p.dcache.Access(uint64(e.memAddr)) {
					lat += p.model.CacheMissPenalty
					s.DCacheMisses++
				}
			}
			if lat < 1 {
				lat = 1 // results are visible to dependents next cycle at the earliest
			}
			e.state = stIssued
			e.complete = rs.cycle + int64(lat)
			// wheel.schedule, hand-inlined for the hot path (the delta is
			// exactly lat); the cold grow case falls back to the method.
			if wb := p.wheel.buckets; lat < len(wb) {
				bi := int(e.complete & int64(len(wb)-1))
				wb[bi] = append(wb[bi], e.seq)
				p.wheel.pending++
			} else {
				p.wheel.schedule(p.rob, e.seq, e.complete, rs.cycle)
			}
			issued++
			s.UnitBusy[u]++
			if e.inQueue && e.queue != QBranch {
				rs.queueUsed[e.queue]--
				e.inQueue = false
				s.QueueOccupancy[e.queue] += rs.cycle - e.qEnter
			}
		}
		if rq.len() == 0 {
			rs.readyMask &^= 1 << u
		}
		if rs.unitCap[u] > 0 && issued == rs.unitCap[u] {
			s.UnitFull[u]++
		}
	}
}

// batchDispatch moves fetched instructions from the fetch buffer into
// the ROB and dispatch queues, in order. The per-event decode
// (unit/queue/rename metadata) and the dependence discovery (last
// writer per register, disambiguation table) were done once in the
// window; the lane only replays the recorded edges against its own ROB
// through the producer-liveness fence (the window's producer seqs
// mostly reference long-committed instructions, which the stale-slot
// check rejects in one indexed load).
func (p *Pipeline) batchDispatch() {
	rs := &p.rs
	w := p.win
	dispatched := 0
	for p.fbuf.len() > 0 && dispatched < p.model.IssueWidth {
		idx := p.fbuf.front()
		throttle := idx&throttleIdxBit != 0
		idx &^= throttleIdxBit
		if p.rob.full() {
			break
		}
		slot := &w.slots[idx&int64(len(w.slots)-1)]
		q := slot.queue
		if rs.queueUsed[q] >= rs.queueCap[q] {
			break
		}
		if slot.needsRename {
			if slot.fpRename && rs.fpRenames == 0 || !slot.fpRename && rs.intRenames == 0 {
				break
			}
		}
		e := p.rob.alloc()
		e.seq = idx
		e.queue = q
		e.unit = slot.unit
		e.state = stDispatched
		e.inQueue = true
		e.renamed = slot.needsRename
		e.fpDest = slot.fpRename
		e.op = slot.op
		e.isCond = slot.isCond
		e.throttle = throttle
		e.taken = slot.ev.Taken
		e.annulled = slot.ev.Annulled
		e.memAccess = slot.memAccess
		e.addr = slot.ev.Addr
		e.memAddr = slot.ev.MemAddr
		e.qEnter = rs.cycle
		e.pending = 0
		e.ndeps = 0
		if len(e.depsOver) > 0 { // avoid the slice-header store (and its write barrier) on the hot path
			e.depsOver = e.depsOver[:0]
		}
		// Sequence numbers are consecutive and the ROB holds at most
		// ActiveList live entries ending at idx, so any producer at or
		// below idx-ActiveList is provably retired — reject it here
		// without the depend call's ROB probe. (depend itself still
		// fences in-range-but-completed producers.) A producer recorded
		// twice (both operands from one register) is counted twice and
		// wakes twice — the net pending count is still correct.
		minLive := idx - int64(p.model.ActiveList)
		for i := 0; i < int(slot.nreg); i++ {
			if d := slot.regDep[i]; d > minLive {
				p.depend(e, d)
			}
		}
		if slot.depStore > minLive {
			p.depend(e, slot.depStore)
		}
		if slot.depLoad > minLive {
			p.depend(e, slot.depLoad)
		}
		if e.renamed {
			if e.fpDest {
				rs.fpRenames--
			} else {
				rs.intRenames--
			}
		}
		rs.queueUsed[q]++
		p.fbuf.popFront()
		dispatched++
		if e.pending == 0 {
			p.ready[e.unit].pushOrdered(e.seq)
			rs.readyMask |= 1 << e.unit
		}
	}
}

// stageEndOfCycle accumulates queue statistics, runs the optional
// self-check, advances the cycle counter and decides termination. It
// returns done=true when the simulation has drained.
func (p *Pipeline) stageEndOfCycle() (bool, error) {
	rs := &p.rs
	s := &p.stats
	// QueueOccupancy is settled per entry on queue-slot release (issue
	// for execution queues, complete for QBranch): an entry dispatched
	// in cycle c and released in cycle c' was counted by the old
	// per-cycle sum in exactly cycles c..c'-1, i.e. c'-c — the value
	// the release sites add. Every slot is released before the drain
	// check passes (checkDrained asserts queueUsed is zero), so the
	// totals are identical and this loop keeps only the full-queue
	// compare.
	for q := Queue(0); q < numQueues; q++ {
		if rs.queueUsed[q] >= rs.queueCap[q] {
			s.QueueFullCycles[q]++
		}
	}

	if p.cfg.SelfCheck {
		if err := p.checkInvariants(rs.cycle); err != nil {
			return false, err
		}
	}

	rs.cycle++
	if rs.traceDone && p.rob.len() == 0 && p.fbuf.len() == 0 {
		if p.cfg.SelfCheck {
			if err := p.checkDrained(rs.cycle); err != nil {
				return false, err
			}
		}
		return true, nil
	}
	if rs.cycle-rs.lastCommit > p.cfg.Watchdog {
		return false, p.watchdogErr()
	}
	// Quiescence fast-forward (skip.go): when nothing can happen before
	// the next wheel event, jump there instead of grinding empty cycles.
	// readyMask is the cheap pre-filter — every ready entry sets its
	// unit bit, so a non-zero mask means issue may have work next cycle.
	if !p.cfg.NoCycleSkip && rs.readyMask == 0 {
		if err := p.fastForward(); err != nil {
			return false, err
		}
	}
	return false, nil
}

// countWrongPathLeaks tallies the wrong-path secret accesses of a
// mispredicted branch that land inside this lane's speculative window:
// wrong-path fetch runs until the branch resolves, so accesses within
// Model.SpecWindow() instructions issue speculatively before the squash.
// The summary is precomputed by the taint source and deterministic, so
// lanes with equal configs count identically.
func (p *Pipeline) countWrongPathLeaks(wp []interp.WrongPathAccess) {
	for _, a := range wp {
		if a.Dist <= p.leakWin {
			p.stats.SpecSecretAccesses++
		}
	}
}

// Stats returns the statistics of the last Run.
func (p *Pipeline) Stats() Stats { return p.stats }
