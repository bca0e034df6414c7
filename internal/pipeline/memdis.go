package pipeline

// noSeq marks an absent sequence-number reference (register
// last-writers, disambiguation slots, fetch stalls).
const noSeq = -1

// memSlot tracks the youngest store and load to one address, by
// sequence number (noSeq when absent). The references are fenced
// the same way register producers are: a recorded seq still names an
// in-flight instruction only while its ROB slot carries the same seq
// in a not-completed state (Pipeline.producer), so slots overwritten
// by younger accesses or left behind by committed ones impose no
// dependence.
type memSlot struct {
	addr  int64
	live  bool
	store int64
	load  int64
}

// memTable is the memory-disambiguation table: an open-addressed,
// linear-probed map from effective address to its youngest store/load.
// The decode window prunes an access once no lane can still depend on
// it (window.pruneMem), so the live set is bounded by the window's
// chunk + horizon — the table never grows during a run and lookups
// touch one or two cache lines.
type memTable struct {
	slots []memSlot
	mask  uint64
	used  int
}

// init sizes the table for at most n live addresses and wipes it.
// Capacity is the next power of two ≥ 4×n, so the load factor stays
// ≤ 25%.
func (t *memTable) init(n int) {
	size := 64
	for size < 4*n {
		size *= 2
	}
	if len(t.slots) < size {
		t.slots = make([]memSlot, size)
	}
	t.mask = uint64(len(t.slots) - 1)
	for i := range t.slots {
		t.slots[i] = memSlot{}
	}
	t.used = 0
}

func (t *memTable) home(addr int64) uint64 {
	return (uint64(addr) * 0x9E3779B97F4A7C15) & t.mask
}

// slot returns the slot for addr, inserting an empty one if absent.
func (t *memTable) slot(addr int64) *memSlot {
	if 4*(t.used+1) > 3*len(t.slots) {
		t.grow()
	}
	i := t.home(addr)
	for {
		s := &t.slots[i]
		if !s.live {
			*s = memSlot{addr: addr, live: true, store: noSeq, load: noSeq}
			t.used++
			return s
		}
		if s.addr == addr {
			return s
		}
		i = (i + 1) & t.mask
	}
}

// find returns the index of addr's slot, or ok=false.
func (t *memTable) find(addr int64) (uint64, bool) {
	i := t.home(addr)
	for {
		s := &t.slots[i]
		if !s.live {
			return 0, false
		}
		if s.addr == addr {
			return i, true
		}
		i = (i + 1) & t.mask
	}
}

// prune drops seq's store/load references when that access is still
// the youngest to its address, deleting the slot once both references
// are gone. References overwritten by younger accesses fail the seq
// match and are left alone.
func (t *memTable) prune(addr, seq int64) {
	i, ok := t.find(addr)
	if !ok {
		return
	}
	s := &t.slots[i]
	if s.store == seq {
		s.store = noSeq
	}
	if s.load == seq {
		s.load = noSeq
	}
	if s.store == noSeq && s.load == noSeq {
		t.deleteAt(i)
	}
}

// deleteAt removes the slot at index i using backward-shift deletion,
// preserving the linear-probe invariant without tombstones.
func (t *memTable) deleteAt(i uint64) {
	t.used--
	for {
		t.slots[i] = memSlot{}
		j := i
		for {
			j = (j + 1) & t.mask
			if !t.slots[j].live {
				return
			}
			h := t.home(t.slots[j].addr)
			// Move slot j back to the hole at i only if its home
			// position does not lie in the cyclic interval (i, j].
			if (j > i && (h <= i || h > j)) || (j < i && (h <= i && h > j)) {
				t.slots[i] = t.slots[j]
				i = j
				break
			}
		}
	}
}

// grow doubles the table and rehashes live slots. Unreachable in
// steady state (pruning bounds occupancy); kept for robustness against
// unusual models.
func (t *memTable) grow() {
	old := t.slots
	t.slots = make([]memSlot, 2*len(old))
	t.mask = uint64(len(t.slots) - 1)
	t.used = 0
	for i := range old {
		if !old[i].live {
			continue
		}
		*t.slot(old[i].addr) = old[i]
	}
}
