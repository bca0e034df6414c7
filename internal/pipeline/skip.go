package pipeline

import "fmt"

// Quiescence fast-forward: a latency-bound pipeline spends long
// stretches in cycles where provably nothing happens — no ready entry
// in any issue queue, no commit-eligible ROB head, no dispatchable
// fetch-buffer slot, fetch stalled on an unresolved control transfer or
// an exhausted window. Grinding stageComplete/stageCommit/stageIssue/
// batchDispatch through those cycles costs the full per-cycle stage
// overhead for zero state change. When stageEndOfCycle detects the
// condition it jumps rs.cycle straight to the next cycle at which
// anything can happen — the wheel's next completion, fetch's resume
// cycle, or the watchdog deadline, whichever is earliest — and settles
// the per-cycle statistics for the skipped range in closed form.
//
// The jump is exact, not approximate (DESIGN.md §18 has the full
// argument):
//
//   - architectural state, queue occupancy and rename pools are
//     constant across a quiescent range, so QueueFullCycles advances by
//     delta per full queue and QueueOccupancy (settled per entry on
//     queue-slot release) needs no adjustment at all;
//   - the fetch-stall condition (!traceDone && (stalledOn >= 0 ||
//     cycle < fetchResumeAt)) is uniform across the range because the
//     horizon is capped at fetchResumeAt, so FetchStallCycles advances
//     by delta exactly when the unskipped loop would have counted every
//     cycle;
//   - the watchdog counts elapsed — including skipped — cycles: when no
//     event is due before lastCommit+Watchdog+1 the jump lands on the
//     deadline and fails with the byte-identical deadlock error the
//     unskipped loop produces.
//
// Config.NoCycleSkip disables the whole mechanism; the fuzz oracle
// (internal/fuzz.CheckSkip) runs every generated program both ways and
// demands byte-equal Stats.

// SkipStats counts the fast-forward activity of the last Run. The
// counters are deliberately not part of Stats: skipping is a
// simulator-speed artifact, not an architectural observable, and Stats
// must stay byte-identical with skipping on or off (pinned by the
// golden tests and the fuzz skip oracle).
type SkipStats struct {
	// SkippedCycles is the number of dead cycles jumped over; they are
	// still included in Stats.Cycles and every per-cycle statistic.
	SkippedCycles int64
	// FastForwards is the number of jumps taken.
	FastForwards int64
}

// Add accumulates o into s.
func (s *SkipStats) Add(o SkipStats) {
	s.SkippedCycles += o.SkippedCycles
	s.FastForwards += o.FastForwards
}

// SkipStats returns the fast-forward counters of the last Run.
func (p *Pipeline) SkipStats() SkipStats { return p.skip }

// fastForward is called at the end of a cycle whose readyMask is clear
// (the caller's cheap pre-filter: every ready entry sets its unit bit,
// so a non-zero mask means issue may have work). It decides whether the
// coming cycles are provably dead and, if so, jumps rs.cycle to the
// next event horizon.
func (p *Pipeline) fastForward() error {
	rs := &p.rs
	fbufLen := p.fbuf.len()

	// A commit-eligible head makes progress next cycle.
	if p.rob.len() > 0 && p.rob.front().state == stCompleted {
		return nil
	}

	// Fetch: inert only when the trace is done, fetch is stalled on an
	// unresolved control transfer (cleared by a wheel completion), the
	// resume cycle is still in the future, or the buffer is full. A lane
	// at the window frontier with fetch otherwise eligible must not skip
	// either: the next fetch stage parks it (rs.inFetch) so the window
	// can refill.
	fetchStalled := false
	fetchHorizon := int64(-1)
	if !rs.traceDone {
		switch {
		case rs.fetchStalledOn >= 0:
			fetchStalled = true
		case rs.cycle < rs.fetchResumeAt:
			fetchStalled = true
			fetchHorizon = rs.fetchResumeAt
		case fbufLen < p.fbuf.cap:
			return nil // fetch would decode (or discover end of trace)
		}
	}

	// Dispatch: inert only when the buffer is empty or its front item is
	// head-blocked on a structural resource that only a completion can
	// release.
	if fbufLen > 0 && !p.dispatchBlocked() {
		return nil
	}

	// Quiescent. Find the next cycle at which anything can happen.
	horizon := p.wheel.nextAfter(rs.cycle)
	if fetchHorizon >= 0 && (horizon < 0 || fetchHorizon < horizon) {
		horizon = fetchHorizon
	}
	wd := rs.lastCommit + p.cfg.Watchdog + 1
	deadlocked := horizon < 0 || horizon >= wd
	if deadlocked {
		// Nothing can commit before the watchdog deadline: land on it
		// and fail exactly as the unskipped loop would after grinding
		// there one cycle at a time.
		horizon = wd
	}
	delta := horizon - rs.cycle
	if delta <= 0 {
		return nil // the next event is due this very cycle
	}
	if p.cfg.SelfCheck {
		if err := p.checkFastForward(rs.cycle, horizon); err != nil {
			return err
		}
	}
	// The jump swallows the hot loop's periodic cancellation polls, so
	// poll once per fast-forward (error path only; completed runs stay
	// bit-identical, see Config.Context).
	if rs.done != nil {
		select {
		case <-rs.done:
			return fmt.Errorf("pipeline: run cancelled at cycle %d: %w", rs.cycle, p.cfg.Context.Err())
		default:
		}
	}
	p.skipCycles(delta, fetchStalled)
	if deadlocked {
		return p.watchdogErr()
	}
	return nil
}

// dispatchBlocked reports whether dispatch would move zero instructions
// next cycle: the front fetch-buffer item is head-blocked on a
// structural resource — ROB slot, dispatch-queue slot or rename
// register — whose release requires a completion-wheel event. It
// mirrors the break conditions of batchDispatch exactly.
func (p *Pipeline) dispatchBlocked() bool {
	rs := &p.rs
	if p.rob.full() {
		return true
	}
	w := p.win
	slot := &w.slots[(p.fbuf.front()&^throttleIdxBit)&int64(len(w.slots)-1)]
	if rs.queueUsed[slot.queue] >= rs.queueCap[slot.queue] {
		return true
	}
	fp := slot.fpRename
	return slot.needsRename && (fp && rs.fpRenames == 0 || !fp && rs.intRenames == 0)
}

// skipCycles advances the cycle counter by delta dead cycles, settling
// the per-cycle statistics the unskipped loop would have accumulated:
// the full-queue count for every (constant) full queue and, when the
// stall condition held at the jump (and therefore across the whole
// range — the horizon is capped at fetchResumeAt), the fetch-stall
// count.
func (p *Pipeline) skipCycles(delta int64, fetchStalled bool) {
	rs := &p.rs
	s := &p.stats
	for q := Queue(0); q < numQueues; q++ {
		if rs.queueUsed[q] >= rs.queueCap[q] {
			s.QueueFullCycles[q] += delta
		}
	}
	if fetchStalled {
		s.FetchStallCycles += delta
	}
	rs.cycle += delta
	p.skip.SkippedCycles += delta
	p.skip.FastForwards++
}

// watchdogErr is the no-commit deadlock failure; one formatting site so
// the fast-forwarded and cycle-by-cycle paths fail byte-identically.
func (p *Pipeline) watchdogErr() error {
	return fmt.Errorf("pipeline: no commit for %d cycles (simulator deadlock at cycle %d, rob=%d fetchBuf=%d)",
		p.cfg.Watchdog, p.rs.cycle, p.rob.len(), p.fbuf.len())
}
