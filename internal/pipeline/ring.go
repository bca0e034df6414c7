package pipeline

// pow2 rounds n up to the next power of two (minimum 1), so the ring
// buffers can replace their per-access modulo — a ~25-cycle integer
// division on a non-constant size, several times per simulated
// instruction — with a mask.
func pow2(n int) int {
	size := 1
	for size < n {
		size *= 2
	}
	return size
}

// ring is the reorder buffer (active list): a fixed-capacity FIFO of
// entry values. Because every instruction is dispatched exactly once,
// in sequence order, the ROB always holds a contiguous range of
// sequence numbers [frontSeq, frontSeq+count) — so an entry's slot is
// simply buf[seq&mask], stable for its whole in-flight lifetime. That
// makes the sequence number itself the entry's identity: the wheel,
// the ready queues and the dependence edges all carry bare integers
// instead of pointers (no write barriers on the hot paths, nothing for
// the garbage collector to chase), and at(seq) resolves them in one
// indexed load.
//
// A slot keeps its seq and state after commit until a younger
// instruction (seq' = seq + k·size, k ≥ 1) is dispatched into it, so
// possibly-stale references fence themselves: a recorded producer seq
// still names an in-flight instruction iff the slot's seq matches and
// its state is not completed (see Pipeline.producer).
type ring struct {
	buf      []entry
	mask     int64
	cap      int
	frontSeq int64
	count    int
}

func newRing(capacity int) *ring {
	size := pow2(capacity)
	r := &ring{buf: make([]entry, size), mask: int64(size - 1), cap: capacity}
	r.scrub()
	return r
}

func (r *ring) len() int { return r.count }

func (r *ring) full() bool { return r.count == r.cap }

// alloc reserves the slot for the next sequence number and returns it
// for in-place initialization. The caller must set every header field
// (the slot holds a committed predecessor's remains); depsOver keeps
// its capacity across incarnations.
func (r *ring) alloc() *entry {
	if r.full() {
		panic("pipeline: ROB overflow")
	}
	e := &r.buf[(r.frontSeq+int64(r.count))&int64(len(r.buf)-1)]
	r.count++
	return e
}

// at returns the slot owned by seq while seq is in flight — and its
// stale remains afterwards (callers that may hold a committed seq must
// fence with the seq/state check, see Pipeline.producer). The mask is
// spelled len-1 so the compiler proves the index in bounds (this is the
// hottest load in the simulator).
func (r *ring) at(seq int64) *entry {
	return &r.buf[seq&int64(len(r.buf)-1)]
}

func (r *ring) front() *entry {
	return &r.buf[r.frontSeq&int64(len(r.buf)-1)]
}

// popFront retires the oldest entry. Its slot keeps the committed
// remains (seq, completed state) until re-allocated.
func (r *ring) popFront() {
	r.frontSeq++
	r.count--
}

// each visits in-flight entries oldest-first; the visitor must not
// mutate the ring's membership.
func (r *ring) each(f func(*entry)) {
	for i := 0; i < r.count; i++ {
		f(&r.buf[(r.frontSeq+int64(i))&r.mask])
	}
}

// reset empties the ring and scrubs the slots so remains from a prior
// run can never satisfy a new run's seq fence (sequence numbers restart
// at zero every run).
func (r *ring) reset() {
	r.frontSeq, r.count = 0, 0
	r.scrub()
}

func (r *ring) scrub() {
	for i := range r.buf {
		e := &r.buf[i]
		e.seq = -1
		e.state = stCompleted
		e.pending = 0
		e.ndeps = 0
		e.depsOver = e.depsOver[:0]
	}
}

// idxRing is the fetch buffer: a fixed-capacity FIFO of window
// indices. The decoded instruction lives in the shared window, so lanes
// queue bare indices instead of copied events.
type idxRing struct {
	buf   []int64
	cap   int
	head  int
	count int
}

// init sizes the buffer to capacity and empties it, retaining the
// backing array when it is already large enough.
func (r *idxRing) init(capacity int) {
	if size := pow2(capacity); len(r.buf) < size {
		r.buf = make([]int64, size)
	}
	r.cap = capacity
	r.head, r.count = 0, 0
}

func (r *idxRing) len() int { return r.count }

func (r *idxRing) full() bool { return r.count == r.cap }

func (r *idxRing) push(idx int64) {
	if r.count == r.cap {
		panic("pipeline: fetch buffer overflow")
	}
	r.buf[(r.head+r.count)&(len(r.buf)-1)] = idx
	r.count++
}

func (r *idxRing) front() int64 { return r.buf[r.head&(len(r.buf)-1)] }

func (r *idxRing) popFront() {
	r.head++
	r.count--
}
