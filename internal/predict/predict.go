// Package predict implements the branch-prediction schemes of the
// paper's §6: the R10000's 512-entry 2-bit counter table (scheme 1 and
// the substrate of scheme 2), and the perfect predictor used as the
// theoretical upper bound (scheme 3).
//
// Branch-likely instructions are always predicted taken and "don't have
// a specific history counter or an entry in the branch target buffer";
// subroutine calls, returns and register-relative jumps (Switch) can
// never be registered in the BTB and stall fetch until they resolve —
// except under the perfect scheme, where "the remaining branch
// instructions are also predicted correctly".
package predict

import (
	"math/bits"

	"specguard/internal/interp"
	"specguard/internal/isa"
	"specguard/internal/prog"
)

// Class partitions control-transfer instructions by how fetch handles
// them.
type Class int

const (
	// ClassNone: not a control transfer.
	ClassNone Class = iota
	// ClassCond: conditional branch with an absolute target —
	// predicted by the 2-bit table.
	ClassCond
	// ClassLikely: branch-likely — statically predicted taken, no
	// table entry.
	ClassLikely
	// ClassJump: unconditional absolute jump — never mispredicts.
	ClassJump
	// ClassIndirect: call/return/register-relative jump — target not
	// registrable in the BTB; fetch stalls until resolution under
	// non-perfect schemes.
	ClassIndirect
)

// Classify maps an opcode to its prediction class.
func Classify(op isa.Op) Class {
	switch {
	case op.IsLikely():
		return ClassLikely
	case op.IsCondBranch():
		return ClassCond
	case op == isa.J:
		return ClassJump
	case op == isa.Call, op == isa.Ret, op == isa.Switch:
		return ClassIndirect
	}
	return ClassNone
}

// Outcome is a predictor's answer for one fetched control transfer.
type Outcome struct {
	// PredictTaken is the predicted direction (always true for
	// ClassLikely and ClassJump).
	PredictTaken bool
	// Stall means fetch cannot proceed past this instruction until it
	// resolves (indirect targets under non-perfect schemes).
	Stall bool
}

// Predictor is one branch-prediction scheme.
type Predictor interface {
	// Predict returns the fetch-time behaviour for the control
	// transfer at pc. actualTaken is the architectural outcome; only
	// the perfect predictor may look at it.
	Predict(pc uint64, op isa.Op, actualTaken bool) Outcome
	// Update trains the predictor with the resolved outcome.
	Update(pc uint64, op isa.Op, taken bool)
	// Stats returns accumulated counts.
	Stats() Stats
	// Reset clears tables and statistics.
	Reset()
}

// Stats counts prediction events. Conditional branches only
// (ClassCond + ClassLikely); jumps and indirect stalls are accounted by
// the pipeline.
type Stats struct {
	Lookups int64
	Correct int64
}

// Accuracy returns Correct/Lookups (1.0 when nothing was looked up, so
// that branch-free programs read as perfectly predicted).
func (s Stats) Accuracy() float64 {
	if s.Lookups == 0 {
		return 1
	}
	return float64(s.Correct) / float64(s.Lookups)
}

// TwoBit is the 512-entry 2-bit saturating-counter table. Counters are
// indexed by (pc/4) mod entries, so distinct branches can alias — which
// is exactly why removing branches via guarded execution can improve
// the prediction of the survivors (paper §1, citing [9, 5]).
type TwoBit struct {
	entries int
	mask    int // entries-1 when entries is a power of two, else 0
	table   []uint8
	stats   Stats
}

// Counter states: 0 strongly not-taken, 1 weakly not-taken,
// 2 weakly taken, 3 strongly taken. Initialized weakly taken, which
// favours the backward loop branches that dominate these workloads.
const twoBitInit = 2

// NewTwoBit returns a 2-bit predictor with the given table size
// (512 in the paper's model).
func NewTwoBit(entries int) *TwoBit {
	if entries <= 0 {
		panic("predict: table size must be positive")
	}
	p := &TwoBit{entries: entries, mask: pow2Mask(entries)}
	p.Reset()
	return p
}

// pow2Mask returns n-1 when n is a power of two, else 0 — the index
// fast path: table sizes are pow2 in every paper configuration, and a
// mask spares a hardware division per lookup and per training update.
func pow2Mask(n int) int {
	if n&(n-1) == 0 {
		return n - 1
	}
	return 0
}

func (p *TwoBit) index(pc uint64) int {
	if p.mask != 0 {
		return int(pc/4) & p.mask
	}
	return int(pc/4) % p.entries
}

// CanonicalEntries returns the one table size standing for every size
// a program cannot tell apart from entries. bound is one past the
// largest pc/4 of its conditional branches (ClassCond, the only class
// that indexes a table; see IndexBound). Mirroring the index functions:
// TwoBit indexes pc/4 itself in any table of at least bound entries,
// by mask or by modulo; GShare's pc/4 XOR history is below
// 2^max(bits.Len(bound-1), historyBits), which no larger power-of-two
// mask cuts. All such tables train the same counters in the same order
// and map to that power of two, the span; smaller tables alias and map
// to themselves. Without conditional branches (bound 0) every size
// maps to 1.
func CanonicalEntries(entries, bound int, gshare bool, historyBits uint) int {
	if bound == 0 {
		return 1
	}
	n := bits.Len(uint(bound - 1))
	if gshare {
		n = max(n, int(historyBits))
	}
	span := 1 << n
	if entries >= span || !gshare && entries >= bound {
		return span
	}
	return entries
}

// IndexBound returns one past the largest pc/4 of a conditional branch
// (ClassCond) in p's code layout, or 0 when p has none. The layout is
// interp.NewLayout's, so these are the addresses the pipeline hands the
// predictor when it replays p.
func IndexBound(p *prog.Program) int {
	l := interp.NewLayout(p)
	bound := 0
	for _, f := range p.Funcs {
		for _, b := range f.Blocks {
			for _, in := range b.Instrs {
				if Classify(in.Op) == ClassCond {
					bound = max(bound, int(l.Addr(in)/4)+1)
				}
			}
		}
	}
	return bound
}

// PredictClass is Predict for callers that already classified the
// opcode (the pipeline's decode window caches the class per opcode), so
// the hot path skips re-deriving it. Predict delegates here; the two
// must stay one implementation.
func (p *TwoBit) PredictClass(c Class, pc uint64, actualTaken bool) Outcome {
	switch c {
	case ClassLikely:
		p.stats.Lookups++
		if actualTaken {
			p.stats.Correct++
		}
		return Outcome{PredictTaken: true}
	case ClassCond:
		p.stats.Lookups++
		pred := p.table[p.index(pc)] >= 2
		if pred == actualTaken {
			p.stats.Correct++
		}
		return Outcome{PredictTaken: pred}
	case ClassJump:
		return Outcome{PredictTaken: true}
	case ClassIndirect:
		return Outcome{PredictTaken: true, Stall: true}
	}
	return Outcome{}
}

// Predict implements Predictor.
func (p *TwoBit) Predict(pc uint64, op isa.Op, actualTaken bool) Outcome {
	return p.PredictClass(Classify(op), pc, actualTaken)
}

// UpdateClass is Update with a pre-computed class (see PredictClass):
// only plain conditional branches train the table (likely branches have
// no counter).
func (p *TwoBit) UpdateClass(c Class, pc uint64, taken bool) {
	if c != ClassCond {
		return
	}
	i := p.index(pc)
	if taken {
		if p.table[i] < 3 {
			p.table[i]++
		}
	} else if p.table[i] > 0 {
		p.table[i]--
	}
}

// Update implements Predictor.
func (p *TwoBit) Update(pc uint64, op isa.Op, taken bool) {
	p.UpdateClass(Classify(op), pc, taken)
}

// Stats implements Predictor.
func (p *TwoBit) Stats() Stats { return p.stats }

// Reset implements Predictor. The table slice is reused in place:
// predictors built by NewTwoBitLanes share one backing array, and a
// reallocation here would silently detach a lane from it.
func (p *TwoBit) Reset() {
	if p.table == nil {
		p.table = make([]uint8, p.entries)
	}
	for i := range p.table {
		p.table[i] = twoBitInit
	}
	p.stats = Stats{}
}

// NewTwoBitLanes returns one 2-bit predictor per requested table size,
// with every table carved out of a single contiguous backing array.
// Batched lockstep sweeps use this lane-major layout so N predictor
// variants' counter state stays dense in cache while the lanes advance
// over the same instruction window.
func NewTwoBitLanes(sizes []int) []*TwoBit {
	total := 0
	for _, n := range sizes {
		if n <= 0 {
			panic("predict: table size must be positive")
		}
		total += n
	}
	backing := make([]uint8, total)
	preds := make([]*TwoBit, len(sizes))
	off := 0
	for i, n := range sizes {
		p := &TwoBit{entries: n, mask: pow2Mask(n), table: backing[off : off+n : off+n]}
		p.Reset()
		preds[i] = p
		off += n
	}
	return preds
}

// Perfect predicts every control transfer correctly, including the
// indirect classes (scheme 3: "with the perfect prediction scheme, the
// remaining branch instructions are also predicted correctly"). It is
// "not 100% BTB hit ratio" in the paper only because of those indirect
// classes, which we model as correctly predicted rather than stalled.
type Perfect struct {
	stats Stats
}

// NewPerfect returns a perfect predictor.
func NewPerfect() *Perfect { return &Perfect{} }

// Predict implements Predictor.
func (p *Perfect) Predict(pc uint64, op isa.Op, actualTaken bool) Outcome {
	switch Classify(op) {
	case ClassCond, ClassLikely:
		p.stats.Lookups++
		p.stats.Correct++
		return Outcome{PredictTaken: actualTaken}
	case ClassJump, ClassIndirect:
		return Outcome{PredictTaken: true}
	}
	return Outcome{}
}

// Update implements Predictor (no state to train).
func (p *Perfect) Update(pc uint64, op isa.Op, taken bool) {}

// Stats implements Predictor.
func (p *Perfect) Stats() Stats { return p.stats }

// Reset implements Predictor.
func (p *Perfect) Reset() { p.stats = Stats{} }
