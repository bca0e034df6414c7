package pipeline

import (
	"fmt"

	"specguard/internal/isa"
)

// Self-checking mode: when Config.SelfCheck is set, a lane audits the
// event-driven machinery at the end of every cycle and after the run
// completes, and its decode window audits its disambiguation table
// after every refill. The checks restate the conservation laws the hot
// loop relies on but never re-derives:
//
//   - completion wheel: the pending counter equals the number of
//     entries filed across all buckets, every filed entry is in the
//     issued state, and each sits in the bucket of its completion
//     cycle, which lies strictly in the future;
//   - ready queues: every queued entry is dispatched with a zero
//     producer counter, no in-flight entry's counter is negative, and
//     the heap-order property holds;
//   - the window's disambiguation table (memLast): the occupancy
//     counter matches a recount of live slots, no slot holds a
//     reference the window has already pruned or not yet decoded,
//     every slot is reachable from its probe home, and every live slot
//     still has an owner;
//   - lane isolation: the lane's cursor never outruns the window
//     frontier and nothing it holds references an overwritten slot;
//   - reorder buffer and free list: sequence numbers strictly increase
//     front to back, recycled entries are fully scrubbed, and the
//     rename-register pools balance against the entries holding them.
//
// The audit costs a full scan of the in-flight state per cycle, so it
// is strictly opt-in — the differential fuzzer (internal/fuzz) runs
// every simulation with it enabled; production runs leave it off and
// pay only one predictable branch per cycle.

// checkInvariants audits the machinery at the end of one cycle. The
// cycle-local bookkeeping counters (queue occupancy, rename pools) are
// read from p.rs so the audit balances them against a recount, and
// lane isolation is audited against the decode window.
func (p *Pipeline) checkInvariants(cycle int64) error {
	queueUsed := &p.rs.queueUsed
	intRenames, fpRenames := p.rs.intRenames, p.rs.fpRenames
	fail := func(format string, args ...any) error {
		return fmt.Errorf("pipeline: selfcheck cycle %d: %s", cycle, fmt.Sprintf(format, args...))
	}

	// --- Reorder buffer scan. The ROB must hold exactly the
	// contiguous seq range [frontSeq, frontSeq+count), each entry in
	// its seq&mask slot — the addressing contract every bare-seq
	// reference (wheel, ready queues, dependence edges) relies on. ---
	var (
		expectSeq             = p.rob.frontSeq
		issued                int
		renamedInt, renamedFP int
		queued                [numQueues]int
		scanErr               error
	)
	p.rob.each(func(e *entry) {
		if scanErr != nil {
			return
		}
		if e.seq != expectSeq {
			scanErr = fail("ROB slot for seq %d holds seq %d (contiguity broken)", expectSeq, e.seq)
			return
		}
		expectSeq++
		if e.state > stCompleted {
			scanErr = fail("ROB entry seq=%d has invalid state %d", e.seq, e.state)
			return
		}
		if e.pending < 0 {
			scanErr = fail("ROB entry seq=%d has negative producer counter %d", e.seq, e.pending)
			return
		}
		if e.state == stIssued {
			issued++
		}
		if e.inQueue {
			queued[e.queue]++
		}
		if e.renamed {
			if e.fpDest {
				renamedFP++
			} else {
				renamedInt++
			}
		}
	})
	if scanErr != nil {
		return scanErr
	}

	// --- Dispatch-queue occupancy balances the recount. ---
	for q := Queue(0); q < numQueues; q++ {
		if queueUsed[q] != queued[q] {
			return fail("queue %v occupancy counter %d != recount %d", q, queueUsed[q], queued[q])
		}
		if queueUsed[q] < 0 {
			return fail("queue %v occupancy negative: %d", q, queueUsed[q])
		}
	}

	// --- Rename-register pools balance the holders. ---
	m := p.model
	if intRenames+renamedInt != m.RenameRegs {
		return fail("int rename pool %d + holders %d != %d", intRenames, renamedInt, m.RenameRegs)
	}
	if fpRenames+renamedFP != m.RenameRegs {
		return fail("fp rename pool %d + holders %d != %d", fpRenames, renamedFP, m.RenameRegs)
	}

	// --- Completion wheel conservation. Buckets hold bare seqs; each
	// must resolve (via the slot fence) to a live issued entry filed
	// under its completion cycle. ---
	filed := 0
	for i, b := range p.wheel.buckets {
		for _, seq := range b {
			filed++
			e := p.rob.at(seq)
			if e.seq != seq {
				return fail("wheel bucket %d holds seq %d whose slot now belongs to seq %d", i, seq, e.seq)
			}
			if e.state != stIssued {
				return fail("wheel bucket %d holds entry seq=%d in state %d (want issued)", i, seq, e.state)
			}
			if e.complete <= cycle {
				return fail("wheel bucket %d holds entry seq=%d completing at %d (cycle already past)", i, seq, e.complete)
			}
			if int(e.complete%int64(len(p.wheel.buckets))) != i {
				return fail("entry seq=%d completing at %d filed in bucket %d of %d", seq, e.complete, i, len(p.wheel.buckets))
			}
		}
	}
	if filed != p.wheel.pending {
		return fail("wheel pending counter %d != filed entries %d", p.wheel.pending, filed)
	}
	if filed != issued {
		return fail("wheel holds %d entries but ROB has %d issued", filed, issued)
	}

	// --- Ready queues: both feeders of each unit's readyQ must hold
	// live dispatched entries with no pending producers, the FIFO lane
	// must be sorted (dispatch feeds it in order), the heap-order
	// property must hold, and no non-empty queue may hide behind a
	// cleared readyMask bit (issue would never visit it). ---
	for u := isa.UnitClass(0); u < isa.NumUnitClasses; u++ {
		q := &p.ready[u]
		checkReady := func(seq int64) error {
			e := p.rob.at(seq)
			if e.seq != seq {
				return fail("ready[%v] holds seq %d whose slot now belongs to seq %d", u, seq, e.seq)
			}
			if e.state != stDispatched {
				return fail("ready[%v] holds entry seq=%d in state %d (want dispatched)", u, seq, e.state)
			}
			if e.pending != 0 {
				return fail("ready[%v] holds entry seq=%d with pending=%d", u, seq, e.pending)
			}
			return nil
		}
		prev := int64(-1)
		for k := 0; k < q.count; k++ {
			seq := q.fifo[(q.head+k)&q.mask]
			if err := checkReady(seq); err != nil {
				return err
			}
			if seq <= prev {
				return fail("ready[%v] FIFO lane not strictly increasing at position %d", u, k)
			}
			prev = seq
		}
		for i, seq := range q.heap.a {
			if err := checkReady(seq); err != nil {
				return err
			}
			if i > 0 && q.heap.a[(i-1)/2] > seq {
				return fail("ready[%v] heap order violated at index %d", u, i)
			}
		}
		if q.len() > 0 && p.rs.readyMask&(1<<u) == 0 {
			return fail("ready[%v] holds %d entries but its readyMask bit is clear", u, q.len())
		}
	}

	// --- Lane isolation: the lane's cursor never outruns the frontier,
	// its fetch buffer holds exactly the consecutive indices behind the
	// cursor, and every in-flight instruction still references a window
	// slot that a refill cannot have overwritten (the slot-validity
	// contract the double-buffered window relies on). ---
	w := p.win
	if p.cur > w.frontier {
		return fail("lane cursor %d beyond window frontier %d", p.cur, w.frontier)
	}
	if n := p.fbuf.len(); n > 0 {
		if got, want := p.fbuf.front()&^throttleIdxBit, p.cur-int64(n); got != want {
			return fail("fetch buffer front index %d, want %d (cursor %d − occupancy %d)", got, want, p.cur, n)
		}
	}
	oldest := p.cur - int64(p.fbuf.len())
	if p.rob.len() > 0 {
		oldest = p.rob.front().seq
	}
	if valid := w.frontier - int64(len(w.slots)); oldest < valid && w.frontier >= int64(len(w.slots)) {
		return fail("lane references window index %d already overwritten (valid window starts at %d)", oldest, valid)
	}
	return nil
}

// checkFastForward audits one quiescence jump (skip.go) from cycle
// from to cycle to: at the moment of the jump no issue queue may hold
// a ready entry, the ROB head must be incomplete, and the completion
// wheel must hold nothing due before the landing cycle — otherwise the
// jump would have skipped real work. This restates the quiescence
// predicate from the authoritative structures (full queue recount)
// rather than the readyMask shortcut the hot path trusts.
func (p *Pipeline) checkFastForward(from, to int64) error {
	fail := func(format string, args ...any) error {
		return fmt.Errorf("pipeline: selfcheck fast-forward %d->%d: %s", from, to, fmt.Sprintf(format, args...))
	}
	for u := isa.UnitClass(0); u < isa.NumUnitClasses; u++ {
		if n := p.ready[u].len(); n != 0 {
			return fail("ready[%v] holds %d entries", u, n)
		}
	}
	if p.rob.len() > 0 && p.rob.front().state == stCompleted {
		return fail("ROB head seq=%d is commit-eligible", p.rob.front().seq)
	}
	for i, b := range p.wheel.buckets {
		for _, seq := range b {
			if e := p.rob.at(seq); e.complete < to {
				return fail("wheel bucket %d holds seq %d completing at %d (inside the skipped range)", i, seq, e.complete)
			}
		}
	}
	return nil
}

// checkMemLast audits the window's disambiguation table after a
// refill. Every live reference must name a memory access the window
// has decoded and not yet pruned, i.e. a seq in [pruned, frontier):
// pruneMem clears references below pruned and younger accesses
// overwrite older ones, so anything outside that range is stale.
func (w *window) checkMemLast() error {
	fail := func(format string, args ...any) error {
		return fmt.Errorf("pipeline: selfcheck refill to %d: %s", w.frontier, fmt.Sprintf(format, args...))
	}
	t := &w.memLast
	live := 0
	for i := range t.slots {
		s := &t.slots[i]
		if !s.live {
			continue
		}
		live++
		if s.store == noSeq && s.load == noSeq {
			return fail("memLast slot %d (addr %#x) live with no owner", i, s.addr)
		}
		for _, seq := range [2]int64{s.store, s.load} {
			if seq != noSeq && (seq < w.pruned || seq >= w.frontier) {
				return fail("memLast slot %d (addr %#x) holds stale ref seq=%d (live range [%d,%d))",
					i, s.addr, seq, w.pruned, w.frontier)
			}
		}
		// Probe-chain reachability: walking from the home slot must hit
		// this slot before any empty one, or lookups would miss it.
		for j := t.home(s.addr); ; j = (j + 1) & t.mask {
			if j == uint64(i) {
				break
			}
			if !t.slots[j].live {
				return fail("memLast slot %d (addr %#x) unreachable: empty slot %d breaks its probe chain", i, s.addr, j)
			}
		}
	}
	if live != t.used {
		return fail("memLast occupancy counter %d != live recount %d", t.used, live)
	}
	if int64(t.used) > w.frontier-w.pruned {
		return fail("memLast occupancy %d exceeds the %d unpruned events", t.used, w.frontier-w.pruned)
	}
	if 4*t.used > 3*len(t.slots) {
		return fail("memLast load factor exceeded: %d of %d", t.used, len(t.slots))
	}
	return nil
}

// checkDrained audits the post-run state: everything in flight must
// have been committed and recycled.
func (p *Pipeline) checkDrained(cycle int64) error {
	queueUsed := &p.rs.queueUsed
	intRenames, fpRenames := p.rs.intRenames, p.rs.fpRenames
	fail := func(format string, args ...any) error {
		return fmt.Errorf("pipeline: selfcheck post-run: %s", fmt.Sprintf(format, args...))
	}
	if n := p.rob.len(); n != 0 {
		return fail("ROB holds %d entries", n)
	}
	if p.wheel.pending != 0 {
		return fail("wheel still has %d pending completions", p.wheel.pending)
	}
	for u := isa.UnitClass(0); u < isa.NumUnitClasses; u++ {
		if n := p.ready[u].len(); n != 0 {
			return fail("ready[%v] holds %d entries", u, n)
		}
	}
	for q := Queue(0); q < numQueues; q++ {
		if queueUsed[q] != 0 {
			return fail("queue %v occupancy %d", q, queueUsed[q])
		}
	}
	if intRenames != p.model.RenameRegs || fpRenames != p.model.RenameRegs {
		return fail("rename pools not restored: int=%d fp=%d want %d",
			intRenames, fpRenames, p.model.RenameRegs)
	}
	if n := p.rs.unconfirmed; n != 0 {
		return fail("fetch throttle leaked: %d predicted-taken branches still unconfirmed", n)
	}
	return p.checkInvariants(cycle)
}
