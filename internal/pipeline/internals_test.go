package pipeline

import (
	"math/rand"
	"testing"

	"specguard/internal/machine"
	"specguard/internal/predict"
)

func TestSeqHeapPopsInSeqOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	var h seqHeap
	seqs := rng.Perm(200)
	for _, s := range seqs {
		h.push(int64(s))
	}
	prev := int64(-1)
	for h.len() > 0 {
		s := h.pop()
		if s <= prev {
			t.Fatalf("heap order violated: %d after %d", s, prev)
		}
		prev = s
	}
	// Interleaved push/pop keeps order.
	h.push(5)
	h.push(1)
	if h.pop() != 1 {
		t.Fatal("want 1 first")
	}
	h.push(3)
	if h.pop() != 3 || h.pop() != 5 {
		t.Fatal("interleaved order broken")
	}
}

// wheelRob builds a ring whose slots carry the given (seq, complete)
// pairs, as the wheel's grow path resolves completion cycles through
// the ROB.
func wheelRob(t *testing.T, pairs map[int64]int64) *ring {
	t.Helper()
	r := newRing(64)
	for seq, complete := range pairs {
		e := r.at(seq)
		e.seq = seq
		e.complete = complete
		e.state = stIssued
	}
	return r
}

func TestWheelDrainsInProgramOrder(t *testing.T) {
	var w wheel
	w.init(16)
	rob := wheelRob(t, map[int64]int64{9: 12, 3: 12, 7: 12})
	// Same completion cycle, scheduled out of seq order (as issue in
	// different cycles can do): take must return them sorted by seq.
	w.schedule(rob, 9, 12, 10)
	w.schedule(rob, 3, 12, 10)
	w.schedule(rob, 7, 12, 11)
	if got := w.take(11); len(got) != 0 {
		t.Fatalf("cycle 11 bucket should be empty, got %d", len(got))
	}
	got := w.take(12)
	if len(got) != 3 || got[0] != 3 || got[1] != 7 || got[2] != 9 {
		t.Fatalf("bucket not in seq order: %v", got)
	}
	// The drained bucket is reusable.
	if len(w.take(12+int64(len(w.buckets)))) != 0 {
		t.Fatal("bucket not cleared after take")
	}
}

func TestWheelGrowRefiles(t *testing.T) {
	var w wheel
	w.init(6) // 8 buckets
	rob := wheelRob(t, map[int64]int64{1: 105, 2: 140})
	w.schedule(rob, 1, 105, 100)
	// Horizon beyond the current size forces a grow that must re-file seq 1.
	w.schedule(rob, 2, 140, 100)
	if len(w.buckets) <= 8 {
		t.Fatalf("wheel did not grow: %d buckets", len(w.buckets))
	}
	if got := w.take(105); len(got) != 1 || got[0] != 1 {
		t.Fatalf("entry lost across grow: %v", got)
	}
	if got := w.take(140); len(got) != 1 || got[0] != 2 {
		t.Fatalf("far entry misfiled: %v", got)
	}
}

func TestMemTableInsertPruneDelete(t *testing.T) {
	var mt memTable
	mt.init(32)

	s := mt.slot(0x1000)
	s.store = 5
	s = mt.slot(0x1000)
	s.load = 9

	// Pruning the store keeps the slot alive for the load.
	mt.prune(0x1000, 5)
	if i, ok := mt.find(0x1000); !ok {
		t.Fatal("slot vanished while load ref live")
	} else if mt.slots[i].store != noSeq {
		t.Fatal("store ref not cleared")
	}
	// A stale prune (ref already overwritten) must not clear.
	mt.slot(0x1000).load = 20
	mt.prune(0x1000, 9)
	if i, _ := mt.find(0x1000); mt.slots[i].load != 20 {
		t.Fatal("stale prune cleared a younger reference")
	}
	// Final prune deletes the slot.
	mt.prune(0x1000, 20)
	if _, ok := mt.find(0x1000); ok {
		t.Fatal("empty slot not deleted")
	}
	if mt.used != 0 {
		t.Fatalf("used = %d after full prune", mt.used)
	}
}

// TestMemTableCollisionDeletion drives backward-shift deletion through
// colliding keys: after deleting the middle of a probe chain, the
// remaining keys must still be findable.
func TestMemTableCollisionDeletion(t *testing.T) {
	var mt memTable
	mt.init(1) // 64 slots
	// Find three addresses that share a home bucket.
	var addrs []int64
	home := mt.home(1)
	for a := int64(1); len(addrs) < 3; a++ {
		if mt.home(a) == home {
			addrs = append(addrs, a)
		}
	}
	for i, a := range addrs {
		mt.slot(a).store = int64(i + 1)
	}
	// Delete the middle of the chain.
	mt.prune(addrs[1], 2)
	for _, i := range []int{0, 2} {
		idx, ok := mt.find(addrs[i])
		if !ok {
			t.Fatalf("addr %#x lost after chain deletion", addrs[i])
		}
		if mt.slots[idx].store != int64(i+1) {
			t.Fatalf("addr %#x resolves to wrong slot", addrs[i])
		}
	}
	if _, ok := mt.find(addrs[1]); ok {
		t.Fatal("deleted addr still findable")
	}
}

// TestProducerFence exercises the bare-seq staleness fence that
// replaced the pointer-based producerRef: a recorded seq is active
// only while its ROB slot still carries that seq in a not-completed
// state.
func TestProducerFence(t *testing.T) {
	p, err := New(Config{Model: machine.R10000(), Predictor: predict.NewTwoBit(512)})
	if err != nil {
		t.Fatal(err)
	}
	attachEmpty(p)
	e := p.rob.at(7) // slot addressing ignores frontSeq: plant directly
	e.seq = 7
	e.state = stDispatched
	// In flight: active.
	if _, ok := p.producer(7); !ok {
		t.Fatal("in-flight producer must be active")
	}
	e.state = stCompleted
	if _, ok := p.producer(7); ok {
		t.Fatal("completed producer must be inactive")
	}
	e.state = stDispatched
	e.seq = 7 + int64(len(p.rob.buf)) // slot re-dispatched under a younger seq
	if _, ok := p.producer(7); ok {
		t.Fatal("re-dispatched slot must fence the stale seq")
	}
	if _, ok := p.producer(noSeq); ok {
		t.Fatal("noSeq must be inactive")
	}
}
