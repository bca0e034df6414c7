package predict

import (
	"math/rand"
	"testing"

	"specguard/internal/asm"
	"specguard/internal/isa"
)

func TestCanonicalEntries(t *testing.T) {
	cases := []struct {
		entries, bound int
		gshare         bool
		hist           uint
		want           int
	}{
		// 2-bit, compress's bound 51: span 64.
		{16, 51, false, 0, 16},         // aliases: stays
		{50, 51, false, 0, 50},         // one short of bound: modulo aliases
		{51, 51, false, 0, 64},         // at bound: modulo indexes pc/4, rounds up
		{64, 51, false, 0, 64},         // at span
		{4096, 51, false, 0, 64},       // past span
		{4096, 51, false, 12, 64},      // 2-bit reads no history
		{1, 1, false, 0, 1},            // one branch at pc 0
		{512, 0, false, 0, 1},          // no conditional branch
		{32, 51, true, 0, 32},          // gshare below span
		{64, 51, true, 0, 64},          // gshare at span
		{1024, 51, true, 0, 64},        // gshare past span
		{128, 51, true, 8, 128},        // history widens the span to 256
		{256, 51, true, 8, 256},        // at span
		{2048, 23, true, 8, 256},       // grep, past span
		{2048, 23, true, 0, 32},        // grep, no history
		{1 << 24, 0, true, 12, 1},      // no conditional branch
		{16, 300, true, 12, 16},        // small table
		{1 << 13, 300, true, 12, 4096}, // history dominates
	}
	for _, c := range cases {
		if got := CanonicalEntries(c.entries, c.bound, c.gshare, c.hist); got != c.want {
			t.Errorf("CanonicalEntries(%d, bound %d, gshare %v, hist %d) = %d, want %d",
				c.entries, c.bound, c.gshare, c.hist, got, c.want)
		}
	}
}

// TestCanonicalEntriesIndistinguishable feeds predictors at the span,
// at 4× the span and (2-bit) at bound itself, which indexes by modulo,
// one random interleaving of predicts and updates whose conditional
// branches sit below pc/4 = bound: every outcome and the final Stats
// must agree, which is what lets bench.RunSpecs run them as one lane.
func TestCanonicalEntriesIndistinguishable(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	ops := []isa.Op{isa.Beq, isa.Bne, isa.Blt, isa.Beql, isa.J, isa.Call, isa.Add}
	for trial := 0; trial < 40; trial++ {
		bound := 1 + rng.Intn(700)
		hist := uint(rng.Intn(13))
		span2 := CanonicalEntries(1<<24, bound, false, 0)
		spanG := CanonicalEntries(1<<24, bound, true, hist)
		preds := []Predictor{NewTwoBit(span2), NewTwoBit(4 * span2), NewTwoBit(bound)}
		gshares := []Predictor{NewGShare(spanG, hist), NewGShare(4*spanG, hist)}
		for step := 0; step < 4000; step++ {
			op := ops[rng.Intn(len(ops))]
			pc := uint64(4 * rng.Intn(bound))
			if Classify(op) != ClassCond {
				pc = uint64(4 * rng.Intn(4*bound)) // only ClassCond indexes
			}
			taken := rng.Intn(3) != 0
			update := rng.Intn(2) == 0
			for _, group := range [][]Predictor{preds, gshares} {
				want := group[0].Predict(pc, op, taken)
				for i, p := range group[1:] {
					if got := p.Predict(pc, op, taken); got != want {
						t.Fatalf("trial %d (bound %d, hist %d) step %d: lane %d predicts %+v, lane 0 %+v",
							trial, bound, hist, step, i+1, got, want)
					}
				}
				if update {
					for _, p := range group {
						p.Update(pc, op, taken)
					}
				}
			}
		}
		for _, group := range [][]Predictor{preds, gshares} {
			for i, p := range group[1:] {
				if p.Stats() != group[0].Stats() {
					t.Fatalf("trial %d (bound %d, hist %d): lane %d Stats %+v, lane 0 %+v",
						trial, bound, hist, i+1, p.Stats(), group[0].Stats())
				}
			}
		}
	}
}

func TestIndexBound(t *testing.T) {
	p := asm.MustParse(`
func main:
entry:
	li r1, 0
loop:
	add r1, r1, 1
	blt r1, 10, loop
tail:
	beql r1, 10, done
done:
	halt
`)
	// blt is the third instruction (pc/4 = 2); the likely branch after
	// it owns no counter.
	if got := IndexBound(p); got != 3 {
		t.Errorf("IndexBound = %d, want 3", got)
	}
	q := asm.MustParse(`
func main:
entry:
	beql r0, 0, done
done:
	halt
`)
	if got := IndexBound(q); got != 0 {
		t.Errorf("IndexBound without conditional branches = %d, want 0", got)
	}
}
