package pipeline

import (
	"context"
	"fmt"

	"specguard/internal/cache"
	"specguard/internal/interp"
	"specguard/internal/isa"
	"specguard/internal/predict"
)

// Batched lockstep simulation: N independently configured pipelines
// advance over a single Source drain. The expensive per-event work —
// trace decode, opcode-metadata lookups (unit class, queue, predictor
// class, rename kind) and the program-order dependence pre-pass
// (last-writer per register, last-load/last-store per address) — is
// lane-invariant, so it is done once in a shared decode window and the
// lanes consume pre-chewed winEvents through private cursors. Per-lane
// divergence (predictor state, stall windows, cache contents, cycle
// counts) lives entirely in each lane's Pipeline; the window is
// read-only to lanes.
//
// Dependence edges can be precomputed because *which* instruction
// produces a value is architectural (the same committed stream feeds
// every lane); only whether that producer is still in flight is
// lane-local, and that is exactly what dependSeq re-checks against the
// lane's own ROB — mirroring producerRef.active on the single path.

// opMeta caches the pure-opcode metadata the decode pre-pass consults
// per event, collapsing four info-table helper calls into one indexed
// load (isa.Op is a uint8, so the table covers the opcode space).
type opMeta struct {
	unit   isa.UnitClass
	queue  Queue
	ctl    predict.Class
	isCond bool
	isLoad bool
	isJ    bool
}

var opMetaTab = func() (t [256]opMeta) {
	for i := range t {
		op := isa.Op(i)
		t[i] = opMeta{
			unit:   op.Unit(),
			queue:  queueOf(op.Unit()),
			ctl:    predict.Classify(op),
			isCond: op.IsCondBranch(),
			isLoad: op.IsLoad(),
			isJ:    op == isa.J,
		}
	}
	return
}()

// winEvent is one decoded event plus its lane-invariant metadata.
type winEvent struct {
	ev interp.Event

	op    isa.Op
	unit  isa.UnitClass
	queue Queue
	ctl   predict.Class

	needsRename bool
	fpRename    bool
	isCond      bool
	memAccess   bool // IsMem && !Annulled
	fetchBreak  bool // taken branch or unconditional jump ends the fetch group
	icMiss      bool // shared-geometry icache outcome (see window.ic)

	// Producer sequence numbers (program-order indices), -1 for none.
	// nreg register-use edges plus the memory-ordering edges; a
	// producer appearing twice is recorded twice, matching the
	// single-lane dispatch exactly.
	nreg     uint8
	regDep   [3]int64
	depStore int64
	depLoad  int64
}

// window is the shared decode buffer: a double-buffered ring of
// 2×chunk slots refilled one chunk at a time. A refill happens only
// once every live lane has fetched up to the frontier, so it overwrites
// slots that trail the frontier by at least a full chunk — and chunk is
// sized (Batch.geometry) so no lane's in-flight state can reach that
// far back.
type window struct {
	src   Source
	fast  EventSource
	slots []winEvent
	mask  int64
	chunk int64

	frontier int64 // first index not yet decoded
	eof      bool
	err      error

	// ic, when set, precomputes per-event icache outcomes into
	// winEvent.icMiss. Fetch touches the icache once per instruction in
	// trace order on every path, so for a given geometry the hit/miss
	// sequence is lane-invariant and can be computed once per drain;
	// lanes whose geometry matches consume the bit, others (and
	// DisableICache lanes) keep their private cache.
	ic *cache.Cache

	// code, when the source exposes its predecoded program, lets
	// prepare read static operand metadata (uses/defs/rename class)
	// straight from FlatInstr instead of re-deriving it per event.
	code *interp.Code

	// Dependence pre-pass state, advanced once per event. memLast
	// reuses the open-addressed disambiguation table (last store/load
	// seq per address), which probes in one or two cache lines where
	// the Go map it replaced paid a hash call and bucket chase per
	// event. Each refill first prunes the accesses at seqs ≤ frontier −
	// horizon (see pruneMem), so the table holds at most chunk + horizon
	// addresses and never grows.
	lastWriter [128]int64
	memLast    memTable
	horizon    int64 // the largest lane ActiveList
	pruned     int64 // next seq pruneMem retires
	regBuf     []isa.Reg
}

func newWindow(src Source, chunk, horizon int64) *window {
	w := &window{src: src, chunk: chunk, horizon: horizon}
	w.fast, _ = src.(EventSource)
	if cs, ok := src.(interface{ Code() *interp.Code }); ok {
		w.code = cs.Code()
	}
	w.slots = make([]winEvent, 2*chunk)
	w.mask = 2*chunk - 1
	for i := range w.lastWriter {
		w.lastWriter[i] = -1
	}
	w.memLast.init(int(chunk + horizon))
	w.regBuf = make([]isa.Reg, 0, 4)
	return w
}

// refill decodes up to one chunk of further events past the frontier.
func (w *window) refill() {
	if w.eof || w.err != nil {
		return
	}
	w.pruneMem()
	lim := w.frontier + w.chunk
	for w.frontier < lim {
		slot := &w.slots[w.frontier&w.mask]
		var ok bool
		var err error
		if w.fast != nil {
			ok, err = w.fast.NextInto(&slot.ev)
		} else {
			slot.ev, ok, err = w.src.Next()
		}
		if err != nil {
			w.err = err
			return
		}
		if !ok {
			w.eof = true
			return
		}
		if w.ic != nil {
			slot.icMiss = !w.ic.Access(slot.ev.Addr)
		}
		if err := w.prepare(slot, w.frontier); err != nil {
			w.err = err
			return
		}
		w.frontier++
	}
}

// pruneMem retires from memLast every memory access at a seq ≤ frontier
// − horizon, the way commit prunes a single lane's table. The edges it
// drops are ones no lane can use: every event decoded from now on has
// seq ≥ frontier, and batchDispatch discards any producer at or below
// seq − ActiveList (its minLive filter, ActiveList ≤ horizon), so a
// pruned seq and the noSeq that replaces it are equally inert. The
// retired events are still in the ring: they trail the frontier by at
// most chunk + horizon < 2×chunk slots.
func (w *window) pruneMem() {
	for lim := w.frontier - w.horizon; w.pruned <= lim; w.pruned++ {
		if slot := &w.slots[w.pruned&w.mask]; slot.memAccess {
			w.memLast.prune(slot.ev.MemAddr, w.pruned)
		}
	}
}

// prepare computes the lane-invariant metadata and program-order
// dependence edges for the event at sequence number seq. The
// read-uses-then-record-defs order within one event matches the
// single-lane dispatch stage.
func (w *window) prepare(slot *winEvent, seq int64) error {
	in := slot.ev.Instr
	op := in.Op
	mt := &opMetaTab[op]
	slot.op = op
	slot.unit = mt.unit
	slot.queue = mt.queue
	slot.ctl = mt.ctl
	slot.isCond = mt.isCond
	slot.memAccess = slot.ev.IsMem && !slot.ev.Annulled
	slot.fetchBreak = (slot.ev.Branch && slot.ev.Taken) || mt.isJ

	// Fast path: the predecoded Code carries the static operand
	// metadata. The Instr pointer compare proves ev.Flat names this
	// exact instruction (Instr pointers are unique per static
	// instruction), so a stale or zero Flat merely falls through to the
	// recompute path below.
	if c := w.code; c != nil {
		if fi := slot.ev.Flat; fi >= 0 && int(fi) < c.Len() {
			if f := c.Flat(fi); f.Instr == in && int(f.NUses) <= len(slot.regDep) {
				slot.needsRename, slot.fpRename = f.NeedsRename, f.FPRename
				n := int(f.NUses)
				slot.nreg = f.NUses
				for i := 0; i < n; i++ {
					slot.regDep[i] = w.lastWriter[f.Uses[i]]
				}
				slot.depStore, slot.depLoad = -1, -1
				if slot.memAccess {
					pair := w.memLast.slot(slot.ev.MemAddr)
					slot.depStore = pair.store
					if mt.isLoad {
						pair.load = seq
					} else {
						slot.depLoad = pair.load
						pair.store = seq
					}
				}
				if f.HasDef && !slot.ev.Annulled {
					w.lastWriter[f.Def] = seq
				}
				return nil
			}
		}
	}

	slot.needsRename, slot.fpRename = destRename(in)
	w.regBuf = in.AppendUses(w.regBuf[:0])
	if len(w.regBuf) > len(slot.regDep) {
		return fmt.Errorf("pipeline: event %d uses %d registers, window supports %d", seq, len(w.regBuf), len(slot.regDep))
	}
	slot.nreg = uint8(len(w.regBuf))
	for i, r := range w.regBuf {
		slot.regDep[i] = w.lastWriter[r]
	}

	slot.depStore, slot.depLoad = -1, -1
	if slot.memAccess {
		pair := w.memLast.slot(slot.ev.MemAddr)
		slot.depStore = pair.store
		if mt.isLoad {
			pair.load = seq
		} else {
			slot.depLoad = pair.load
			pair.store = seq
		}
	}

	if !slot.ev.Annulled {
		w.regBuf = in.AppendDefs(w.regBuf[:0])
		for _, r := range w.regBuf {
			w.lastWriter[r] = seq
		}
	}
	return nil
}

// throttleIdxBit marks a queued window index as a predicted-taken
// conditional branch (the variable fetch-rate trigger). The prediction
// is lane-local and made at fetch, but the entry flag is needed at
// dispatch — and the shared window cannot carry per-lane state — so the
// flag rides in a high bit of the lane's own queued cursor (window
// indices are trace positions, far below 2^62).
const throttleIdxBit = int64(1) << 62

// idxRing is a fixed-capacity FIFO of window indices — the batched
// path's fetch buffer. The decoded instruction lives in the shared
// window, so lanes queue bare cursors instead of copied events.
type idxRing struct {
	buf   []int64
	mask  int
	cap   int
	head  int
	count int
}

func (r *idxRing) init(capacity int) {
	if size := pow2(capacity); len(r.buf) < size {
		r.buf = make([]int64, size)
	}
	r.mask = len(r.buf) - 1
	r.cap = capacity
	r.head, r.count = 0, 0
}

func (r *idxRing) len() int { return r.count }

func (r *idxRing) push(idx int64) {
	if r.count == r.cap {
		panic("pipeline: batch fetch buffer overflow")
	}
	r.buf[(r.head+r.count)&(len(r.buf)-1)] = idx
	r.count++
}

func (r *idxRing) front() int64 { return r.buf[r.head&(len(r.buf)-1)] }

func (r *idxRing) popFront() {
	r.head++
	r.count--
}

// Batch advances N independently configured pipeline lanes in lockstep
// over a single Source drain. Each lane's Stats are byte-identical to
// what a standalone Run with the same Config over the same stream
// produces (pinned by the golden tests and the fuzz batch-vs-single
// oracle).
type Batch struct {
	lanes []*Pipeline
}

// NewBatch builds one lane per Config. Lane configs may differ in
// predictor, cache enables, fetch-buffer size — anything but the event
// stream.
func NewBatch(cfgs []Config) (*Batch, error) {
	if len(cfgs) == 0 {
		return nil, fmt.Errorf("pipeline: NewBatch needs at least one Config")
	}
	b := &Batch{lanes: make([]*Pipeline, len(cfgs))}
	for i, cfg := range cfgs {
		p, err := New(cfg)
		if err != nil {
			return nil, fmt.Errorf("pipeline: batch lane %d: %w", i, err)
		}
		b.lanes[i] = p
	}
	return b, nil
}

// Lanes returns the number of lanes.
func (b *Batch) Lanes() int { return len(b.lanes) }

// geometry sizes the decode window so a refill can never overwrite a
// slot still referenced by any lane: a lane's oldest live reference
// (ROB front or fetch-buffer front) trails its cursor by at most
// ActiveList + FetchBufferSize events, refills happen only when every
// live lane's cursor sits at the frontier, and the ring keeps two
// chunks so the previous chunk stays intact through the next refill.
// The floor of 512 events sets the scheduler's grain: one lane's run
// between refills, and one round barrier per chunk (RunDrains).
// horizon is the largest lane ActiveList, the reach of batchDispatch's
// minLive filter.
func (b *Batch) geometry() (chunk, horizon int64) {
	need := 0
	for _, p := range b.lanes {
		if n := p.model.ActiveList + p.cfg.FetchBufferSize + p.model.IssueWidth; n > need {
			need = n
		}
		horizon = max(horizon, int64(p.model.ActiveList))
	}
	chunk = 512
	for chunk < int64(2*need) {
		chunk *= 2
	}
	return chunk, horizon
}

// start resets every lane for a drain of src and returns the drain's
// empty window.
func (b *Batch) start(src Source) *window {
	chunk, horizon := b.geometry()
	w := newWindow(src, chunk, horizon)
	// Precompute icache outcomes for the most common geometry (that of
	// the first icache-enabled lane); matching lanes read bits, others
	// run their private cache. The bits always describe a cold cache,
	// which is what a fresh lane's private cache would see.
	var icBytes, icLine int
	for _, p := range b.lanes {
		if p.icache != nil {
			icBytes, icLine = p.model.ICacheBytes, p.model.CacheLineBytes
			w.ic = cache.New(icBytes, icLine)
			break
		}
	}
	for _, p := range b.lanes {
		p.beginRun()
		p.win = w
		p.icShared = p.icache != nil && w.ic != nil &&
			p.model.ICacheBytes == icBytes && p.model.CacheLineBytes == icLine
		p.bfbuf.init(p.cfg.FetchBufferSize)
	}
	return w
}

// Run drains src once and returns one Stats per lane, in lane order. It
// is the one-drain, one-worker case of RunDrains.
func (b *Batch) Run(src Source) ([]Stats, error) {
	var out []Stats
	err := RunDrains(context.Background(), []Drain{{
		Open: func() (*Batch, Source, error) { return b, src, nil },
		Done: func(_ *Batch, stats []Stats) { out = stats },
	}}, 1)
	if err != nil {
		return nil, err
	}
	return out, nil
}

// SkipStats sums the quiescence fast-forward counters over all lanes
// of the last Run.
func (b *Batch) SkipStats() SkipStats {
	var t SkipStats
	for _, p := range b.lanes {
		t.Add(p.SkipStats())
	}
	return t
}

// runBatch advances one lane until it finishes, fails, or needs an
// event beyond the window frontier — at which point it parks mid-fetch
// (rs.inFetch) and resumes exactly there on the next call, after the
// shared window has refilled.
func (p *Pipeline) runBatch() (bool, error) {
	m := p.model
	rs := &p.rs
	s := &p.stats
	w := p.win
	for {
		if !rs.inFetch {
			// ---- Cooperative cancellation (see Config.Context). ----
			if rs.done != nil && rs.cycle&cancelCheckMask == 0 {
				select {
				case <-rs.done:
					return false, fmt.Errorf("pipeline: run cancelled at cycle %d: %w", rs.cycle, p.cfg.Context.Err())
				default:
				}
			}
			p.stageComplete()
			p.stageCommit()
			p.stageIssue()
			p.batchDispatch()
			rs.fetched = 0
		}
		rs.inFetch = false

		// ---- Fetch from the shared window (same gating and break
		// conditions as the single-lane loop). ----
		if !rs.traceDone && rs.fetchStalledOn < 0 && rs.cycle >= rs.fetchResumeAt {
			width := p.fetchWidth()
			for ; rs.fetched < width && p.bfbuf.len() < p.cfg.FetchBufferSize; rs.fetched++ {
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
					// Mirrors decodeFetch's committed-leak count: once
					// per fetched event on both icache paths.
					s.SecretAccesses++
				}
				var icMiss bool
				if p.icShared {
					icMiss = slot.icMiss
				} else if p.icache != nil {
					icMiss = !p.icache.Access(slot.ev.Addr)
				}
				if icMiss {
					s.ICacheMisses++
					rs.fetchResumeAt = rs.cycle + int64(m.CacheMissPenalty)
					// The missing instruction still enters the buffer
					// (its line is now resident); fetch pauses after it.
					if slot.ctl != predict.ClassNone && p.batchPredict(slot, idx) {
						idx |= throttleIdxBit
					}
					p.bfbuf.push(idx)
					break
				}
				if slot.ctl != predict.ClassNone && p.batchPredict(slot, idx) {
					idx |= throttleIdxBit
				}
				p.bfbuf.push(idx)
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

		done, err := p.stageEndOfCycle(p.bfbuf.len())
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

// batchPredict mirrors decodeFetch against a shared window slot: it
// consults the lane's predictor and records stalls/mispredicts. The
// sequence number is the window index, so lanes agree on instruction
// identity by construction. It reports whether the slot is a
// predicted-taken conditional branch (the caller tags the queued cursor
// with throttleIdxBit so dispatch can hand the flag to the entry).
func (p *Pipeline) batchPredict(slot *winEvent, idx int64) (throttle bool) {
	if slot.ctl == predict.ClassNone {
		return false
	}
	var out predict.Outcome
	if tb := p.predTB; tb != nil {
		out = tb.PredictClass(slot.ctl, slot.ev.Addr, slot.ev.Taken)
	} else {
		out = p.pred.Predict(slot.ev.Addr, slot.op, slot.ev.Taken)
	}
	if !out.Stall && out.PredictTaken && slot.isCond {
		// See decodeFetch: counted even at full width.
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

// batchDispatch is the batched dispatch stage: identical structure to
// stageDispatch, but the per-event decode (unit/queue/rename metadata)
// and the dependence discovery (last-writer map, disambiguation table)
// were already done once in the shared window; the lane only replays
// the recorded edges against its own ROB through the same
// producer-liveness fence the single-lane path uses (the window's
// producer seqs mostly reference long-committed instructions, which
// the stale-slot check rejects in one indexed load). The lane's own
// memdis table stays empty — commit's prune degenerates to a cheap
// miss.
func (p *Pipeline) batchDispatch() {
	rs := &p.rs
	w := p.win
	dispatched := 0
	for p.bfbuf.len() > 0 && dispatched < p.model.IssueWidth {
		idx := p.bfbuf.front()
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
		if len(e.depsOver) > 0 { // see stageDispatch: skip the slice-header store
			e.depsOver = e.depsOver[:0]
		}
		// Sequence numbers are consecutive and the ROB holds at most
		// ActiveList live entries ending at idx, so any producer at or
		// below idx-ActiveList is provably retired — reject it here
		// without the depend call's ROB probe. (depend itself still
		// fences in-range-but-completed producers.)
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
		p.bfbuf.popFront()
		dispatched++
		if e.pending == 0 {
			p.ready[e.unit].pushOrdered(e.seq)
			rs.readyMask |= 1 << e.unit
		}
	}
}
