package pipeline

import (
	"reflect"
	"strings"
	"testing"

	"specguard/internal/asm"
	"specguard/internal/machine"
	"specguard/internal/predict"
)

const invariantKernel = `
func main:
entry:
	li r1, 0
	li r5, 512
loop:
	and r2, r1, 7
	sll r3, r2, 3
	add r3, r3, r5
	lw r4, 0(r3)
	add r4, r4, 1
	sw r4, 0(r3)
	beq r2, 0, sp
pl:
	add r6, r6, 1
	j next
sp:
	sub r7, r7, 1
next:
	add r1, r1, 1
	blt r1, 3000, loop
exit:
	halt
`

// TestSelfCheckCleanRun pins two properties: a healthy simulation
// passes every per-cycle audit, and enabling the audit does not perturb
// the statistics.
func TestSelfCheckCleanRun(t *testing.T) {
	run := func(selfCheck bool) Stats {
		sim, err := New(Config{Model: machine.R10000(), Predictor: predict.NewTwoBit(512), SelfCheck: selfCheck})
		if err != nil {
			t.Fatal(err)
		}
		stats, err := sim.Run(freshSource(t, asm.MustParse(invariantKernel)))
		if err != nil {
			t.Fatalf("selfCheck=%v: %v", selfCheck, err)
		}
		return stats
	}
	plain, audited := run(false), run(true)
	if !reflect.DeepEqual(plain, audited) {
		t.Fatalf("SelfCheck perturbed the statistics:\nplain:   %+v\naudited: %+v", plain, audited)
	}
}

// attachEmpty attaches p to an empty window, as Run does before its
// first refill: full rename pools and zero queue occupancy in p.rs.
func attachEmpty(p *Pipeline) {
	chunk, horizon := geometry(p)
	p.attach(newWindow(emptySource{}, chunk, horizon))
}

// newCheckedPipeline builds a pipeline with initialized machinery, ready
// for direct state surgery.
func newCheckedPipeline(t *testing.T) *Pipeline {
	t.Helper()
	p, err := New(Config{Model: machine.R10000(), Predictor: predict.NewTwoBit(512), SelfCheck: true})
	if err != nil {
		t.Fatal(err)
	}
	attachEmpty(p)
	return p
}

// plant dispatches a bare entry into the next ROB slot, stamped with
// the sequence number the contiguity audit expects there.
func plant(p *Pipeline, state entryState) *entry {
	e := p.rob.alloc()
	e.seq = p.rob.frontSeq + int64(p.rob.count) - 1
	e.state = state
	return e
}

// TestSelfCheckDetectsCorruption corrupts each audited structure in
// turn and verifies the checker names the violation: the lane's
// per-cycle audit, or for the window's disambiguation table (memLast)
// the audit every refill runs.
func TestSelfCheckDetectsCorruption(t *testing.T) {
	cases := []struct {
		name    string
		corrupt func(p *Pipeline)
		want    string
	}{
		{
			name: "negative producer counter",
			corrupt: func(p *Pipeline) {
				plant(p, stDispatched).pending = -1
			},
			want: "negative producer counter",
		},
		{
			name: "seq contiguity",
			corrupt: func(p *Pipeline) {
				plant(p, stDispatched).seq = 9 // slot owned by seq 0
			},
			want: "contiguity broken",
		},
		{
			name: "wheel pending drift",
			corrupt: func(p *Pipeline) {
				e := plant(p, stIssued)
				e.complete = 5
				p.wheel.schedule(p.rob, e.seq, 5, 0)
				p.wheel.pending++ // conservation broken
			},
			want: "wheel pending counter",
		},
		{
			name: "wheel holds unissued entry",
			corrupt: func(p *Pipeline) {
				e := plant(p, stDispatched)
				e.complete = 5
				p.wheel.schedule(p.rob, e.seq, 5, 0)
			},
			want: "want issued",
		},
		{
			name: "wheel holds stale seq",
			corrupt: func(p *Pipeline) {
				// Filed seq never dispatched: its slot still carries the
				// scrub marker, so the fence must flag it.
				p.wheel.schedule(p.rob, 5, 7, 0)
			},
			want: "slot now belongs",
		},
		{
			name: "ready entry with pending producers",
			corrupt: func(p *Pipeline) {
				e := plant(p, stDispatched)
				e.pending = 2
				p.ready[0].pushWake(e.seq)
				p.rs.readyMask |= 1
			},
			want: "with pending",
		},
		{
			name: "ready queue hidden from issue",
			corrupt: func(p *Pipeline) {
				e := plant(p, stDispatched)
				p.ready[0].pushOrdered(e.seq)
				// readyMask bit left clear: issue would never drain it.
			},
			want: "readyMask bit is clear",
		},
		{
			name: "memdis occupancy drift",
			corrupt: func(p *Pipeline) {
				p.win.frontier = 1
				p.win.memLast.slot(0x40).store = 0
				p.win.memLast.used++ // counter drift
			},
			want: "occupancy counter",
		},
		{
			name: "memdis stale reference",
			corrupt: func(p *Pipeline) {
				p.win.frontier, p.win.pruned = 9, 4
				// seq 2 lies below the unpruned range [4,9): a reference
				// pruneMem should have cleared.
				p.win.memLast.slot(0x40).store = 2
			},
			want: "stale ref",
		},
		{
			name: "memdis ownerless slot",
			corrupt: func(p *Pipeline) {
				p.win.memLast.slot(0x40) // live slot, both refs noSeq
			},
			want: "no owner",
		},
		{
			name: "memLast probe chain broken",
			corrupt: func(p *Pipeline) {
				// A live slot one past an empty home slot: lookups of its
				// address stop at the hole and miss it.
				t := &p.win.memLast
				p.win.frontier = 1
				t.slots[(t.home(0x40)+1)&t.mask] = memSlot{addr: 0x40, live: true, store: 0, load: noSeq}
				t.used++
			},
			want: "unreachable",
		},
		{
			name: "rename pool imbalance",
			corrupt: func(p *Pipeline) {
				plant(p, stDispatched).renamed = true
				// caller-side counter says nothing was taken
			},
			want: "rename pool",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := newCheckedPipeline(t)
			tc.corrupt(p)
			err := p.checkInvariants(0)
			if err == nil {
				err = p.win.checkMemLast()
			}
			if err == nil {
				t.Fatal("corruption not detected")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("got %q, want substring %q", err, tc.want)
			}
		})
	}
}

// TestSelfCheckQueueRecount verifies the occupancy balance check.
func TestSelfCheckQueueRecount(t *testing.T) {
	p := newCheckedPipeline(t)
	e := plant(p, stDispatched)
	e.inQueue = true
	e.queue = QInt
	// p.rs.queueUsed claims zero occupancy.
	err := p.checkInvariants(0)
	if err == nil || !strings.Contains(err.Error(), "occupancy counter") {
		t.Fatalf("queue drift not detected: %v", err)
	}
	p.rs.queueUsed[QInt] = 1
	if err := p.checkInvariants(0); err != nil {
		t.Fatalf("consistent state rejected: %v", err)
	}
}
