package pipeline

import (
	"fmt"

	"specguard/internal/cache"
	"specguard/internal/interp"
	"specguard/internal/isa"
	"specguard/internal/predict"
)

// The decode window: every simulation — Run's one lane or a drain's N —
// reads its Source through one. The expensive per-event work — trace
// decode, opcode-metadata lookups (unit class, queue, predictor class,
// rename kind) and the program-order dependence pre-pass (last writer
// per register, last load/store per address) — is lane-invariant, so
// the window does it once per event and lanes consume pre-chewed
// winEvents through private cursors. Per-lane divergence (predictor
// state, stall windows, cache contents, cycle counts) lives entirely in
// each lane's Pipeline; the window is read-only to lanes.
//
// Dependence edges can be precomputed because *which* instruction
// produces a value is architectural (the same committed stream feeds
// every lane); only whether that producer is still in flight is
// lane-local, and that is exactly what depend re-checks against the
// lane's own ROB.

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
	// nreg register-use edges (in AppendUses order, a producer appearing
	// twice recorded twice) plus the memory-ordering edges.
	nreg     uint8
	regDep   [3]int64
	depStore int64
	depLoad  int64
}

// window is the shared decode buffer: a double-buffered ring of
// 2×chunk slots refilled one chunk at a time. A refill happens only
// once every live lane has fetched up to the frontier, so it overwrites
// slots that trail the frontier by at least a full chunk — and chunk is
// sized (geometry) so no lane's in-flight state can reach that far back.
type window struct {
	src   Source
	slots []winEvent
	mask  int64
	chunk int64

	frontier int64 // first index not yet decoded
	eof      bool
	err      error

	// ic, when set, precomputes per-event icache outcomes into
	// winEvent.icMiss. Fetch touches the icache once per instruction in
	// trace order in every lane, so for a given geometry the hit/miss
	// sequence is lane-invariant and can be computed once per drain;
	// lanes whose geometry matches consume the bit, others (and
	// DisableICache lanes) keep their private cache. Only a drain of two
	// or more lanes sets it (start): a one-lane drain — Run, which
	// RunDrains also uses for a one-lane drain — keeps its private
	// icache, which persists across runs like the predictor; sharing
	// with no other lane would only allocate a second cache.
	ic *cache.Cache
	// icKept is the last shared icache, kept across drains so the next
	// drain of the same geometry resets it instead of allocating one.
	icKept *cache.Cache

	// code is the source's predecoded program: prepare reads each
	// event's static operand metadata (uses, def, rename class) from
	// its FlatInstr.
	code *interp.Code

	// selfCheck audits memLast after every refill (any lane's
	// Config.SelfCheck turns it on).
	selfCheck bool

	// Dependence pre-pass state, advanced once per event. memLast is an
	// open-addressed disambiguation table (last store/load seq per
	// address), which probes in one or two cache lines where a Go map
	// would pay a hash call and bucket chase per event. Each refill
	// first prunes the accesses at seqs ≤ frontier − horizon (see
	// pruneMem), so the table holds at most chunk + horizon addresses
	// and never grows.
	lastWriter [128]int64
	memLast    memTable
	horizon    int64 // the largest lane ActiveList
	pruned     int64 // next seq pruneMem retires
}

// newWindow returns an empty window over src.
func newWindow(src Source, chunk, horizon int64) *window {
	w := new(window)
	w.reset(src, chunk, horizon)
	return w
}

// reset empties w for a drain of src, reusing its buffers when they are
// large enough.
func (w *window) reset(src Source, chunk, horizon int64) {
	w.src, w.code, w.ic = src, src.Code(), nil
	if int64(cap(w.slots)) < 2*chunk {
		w.slots = make([]winEvent, 2*chunk)
	}
	w.slots = w.slots[:2*chunk]
	w.mask = 2*chunk - 1
	w.chunk, w.horizon = chunk, horizon
	w.frontier, w.pruned = 0, 0
	w.eof, w.err, w.selfCheck = false, nil, false
	for i := range w.lastWriter {
		w.lastWriter[i] = noSeq
	}
	w.memLast.init(int(chunk + horizon))
}

// freeWindows recycles windows across drains, Run's included. A window
// is ~330 KB (1024 slots plus its disambiguation table) where a lane is
// ~30 KB, so a fresh window per run would dominate allocation. At most
// GOMAXPROCS drains run at once, so the list keeps one per processor.
var freeWindows = freeList[*window]{perProc: 1}

// getWindow returns an empty window over src, reusing a free window —
// one large enough when there is one.
func getWindow(src Source, chunk, horizon int64) *window {
	w, ok := freeWindows.get(func(w *window) bool { return int64(cap(w.slots)) >= 2*chunk })
	if !ok {
		return newWindow(src, chunk, horizon)
	}
	w.reset(src, chunk, horizon)
	return w
}

// putWindow returns a window no lane reads any more to the free list,
// dropping its source.
func putWindow(w *window) {
	w.src, w.code, w.ic = nil, nil, nil
	freeWindows.put(w)
}

// coldCache returns an empty cache of the given geometry: c reset when
// it has that geometry, else a new one.
func coldCache(c *cache.Cache, sizeBytes, lineBytes int) *cache.Cache {
	if !shaped(c, sizeBytes, lineBytes) {
		return cache.New(sizeBytes, lineBytes)
	}
	c.Reset()
	return c
}

// shaped reports whether c is a cache of the given geometry.
func shaped(c *cache.Cache, sizeBytes, lineBytes int) bool {
	if c == nil {
		return false
	}
	s, l := c.Geometry()
	return s == sizeBytes && l == lineBytes
}

// refill decodes up to one chunk of further events past the frontier.
func (w *window) refill() {
	if w.eof || w.err != nil {
		return
	}
	w.pruneMem()
	for lim := w.frontier + w.chunk; w.frontier < lim; w.frontier++ {
		slot := &w.slots[w.frontier&w.mask]
		ok, err := w.src.NextInto(&slot.ev)
		if err != nil {
			w.err = err
			return
		}
		if !ok {
			w.eof = true
			break
		}
		if w.ic != nil {
			slot.icMiss = !w.ic.Access(slot.ev.Addr)
		}
		if err := w.prepare(slot, w.frontier); err != nil {
			w.err = err
			return
		}
	}
	if w.selfCheck {
		w.err = w.checkMemLast()
	}
}

// pruneMem retires from memLast every memory access at a seq ≤ frontier
// − horizon. The edges it drops are ones no lane can use: every event
// decoded from now on has seq ≥ frontier, and batchDispatch discards
// any producer at or below seq − ActiveList (its minLive filter,
// ActiveList ≤ horizon), so a pruned seq and the noSeq that replaces it
// are equally inert. The retired events are still in the ring: they
// trail the frontier by at most chunk + horizon < 2×chunk slots.
func (w *window) pruneMem() {
	for lim := w.frontier - w.horizon; w.pruned <= lim; w.pruned++ {
		if slot := &w.slots[w.pruned&w.mask]; slot.memAccess {
			w.memLast.prune(slot.ev.MemAddr, w.pruned)
		}
	}
}

// prepare computes the lane-invariant metadata and program-order
// dependence edges for the event at sequence number seq: an event's
// uses read the last writers before its own defs are recorded. The
// static operands come from the FlatInstr the event's Flat names in the
// source's Code; an event whose Flat is out of range or names another
// instruction is an error, since its operands would be another
// instruction's.
func (w *window) prepare(slot *winEvent, seq int64) error {
	ev := &slot.ev
	c := w.code
	if fi := ev.Flat; fi < 0 || int(fi) >= c.Len() {
		return fmt.Errorf("pipeline: event %d (%v): flat index %d is outside the source's code [0, %d)", seq, ev.Instr, fi, c.Len())
	}
	f := c.Flat(ev.Flat)
	if f.Instr != ev.Instr {
		return fmt.Errorf("pipeline: event %d (%v): flat index %d names another instruction (%v)", seq, ev.Instr, ev.Flat, f.Instr)
	}
	mt := &opMetaTab[f.Op]
	slot.op = f.Op
	slot.unit = mt.unit
	slot.queue = mt.queue
	slot.ctl = mt.ctl
	slot.isCond = mt.isCond
	slot.memAccess = ev.IsMem && !ev.Annulled
	slot.fetchBreak = (ev.Branch && ev.Taken) || mt.isJ
	slot.needsRename, slot.fpRename = f.NeedsRename, f.FPRename

	slot.nreg = f.NUses
	for i := 0; i < int(f.NUses); i++ {
		slot.regDep[i] = w.lastWriter[f.Uses[i]]
	}
	slot.depStore, slot.depLoad = -1, -1
	if slot.memAccess {
		pair := w.memLast.slot(ev.MemAddr)
		slot.depStore = pair.store
		if mt.isLoad {
			pair.load = seq
		} else {
			slot.depLoad = pair.load
			pair.store = seq
		}
	}
	// An annulled instruction's destination write is squashed, so it
	// must not become a producer.
	if f.HasDef && !ev.Annulled {
		w.lastWriter[f.Def] = seq
	}
	return nil
}

// throttleIdxBit marks a queued window index as a predicted-taken
// conditional branch (the variable fetch-rate trigger). The prediction
// is lane-local and made at fetch, but the entry flag is needed at
// dispatch — and the shared window cannot carry per-lane state — so the
// flag rides in a high bit of the lane's own queued index (window
// indices are trace positions, far below 2^62).
const throttleIdxBit = int64(1) << 62
