package analysis

import (
	"slices"

	"specguard/internal/isa"
	"specguard/internal/prog"
)

// checkSpeculation audits every instruction carrying the Speculated
// mark (set only by xform.Speculate when it hoists above a branch):
//
//   - spec-faulting-op (error): the operation can fault and executes
//     unguarded on the off-trace path too. Loads are legal only when
//     the caller vouches for their addresses (AllowSpeculativeLoads,
//     mirroring xform.SpecOptions.Loads); Div may trap on a zero
//     divisor that the branch was guarding against.
//
//   - spec-off-trace-live (error): the hoisted instruction's result
//     may be observed somewhere other than the hoist-source path. A
//     sound hoist (Fig. 1(b)) renames its destination so that exactly
//     one successor — the block it was hoisted from — reads it; if the
//     controlling branch itself reads the destination, or two distinct
//     successors can observe it, the renaming contract is broken and
//     the off-trace path computes with a clobbered register.
//
// The mark pins the instruction's current block as the hoist site:
// marked instructions sit above a conditional branch (two successors),
// and no shipped transform moves them across block boundaries
// afterwards. A marked instruction in a single-successor block is a
// stale mark with nothing left to check, and is skipped.
func (a *funcAnalysis) checkSpeculation() {
	var dbuf [1]isa.Reg
	var sbuf [2]int32
	for bi, b := range a.f.Blocks {
		if !a.reach[bi] {
			continue
		}
		succs := distinctBlocks(sbuf[:0], a.ix.succs(bi))
		for i, in := range b.Instrs {
			if !in.Speculated {
				continue
			}

			if !in.Guarded() {
				if in.Op.IsLoad() && !a.opts.AllowSpeculativeLoads {
					a.diag(RuleSpecFaulting, SevError, b, i,
						"speculated load executes unguarded on the off-trace path (pass -spec-loads / SpecOptions.Loads to vouch for its address)")
				}
				if in.Op == isa.Div {
					a.diag(RuleSpecFaulting, SevError, b, i,
						"speculated div executes unguarded on the off-trace path and may trap on a zero divisor")
				}
			}

			if len(succs) < 2 {
				continue // not above a branch: nothing to clobber
			}
			for _, d := range in.AppendDefs(dbuf[:0]) {
				if !d.Valid() || d.IsZero() || d.IsTruePred() {
					continue // hardwired sinks carry no value
				}
				if killedLaterInBlock(b, i, d) {
					continue // overwritten before the branch: unobservable
				}
				if t := b.Terminator(); t != nil && usesReg(t, d) {
					a.diag(RuleSpecLive, SevError, b, i,
						"speculated definition of %s is read by the controlling branch", d)
					continue
				}
				observers := 0
				for _, s := range succs {
					if a.obsIn[s].Has(d) {
						observers++
					}
				}
				if observers >= 2 {
					a.diag(RuleSpecLive, SevError, b, i,
						"speculated definition of %s may be observed on the off-trace path (destination not renamed)", d)
				}
			}
		}
	}
}

// distinctBlocks appends a successor list to dst without repeats (a
// conditional branch whose target is its own fall-through yields the
// same block twice).
func distinctBlocks(dst, bs []int32) []int32 {
	for _, b := range bs {
		if !slices.Contains(dst, b) {
			dst = append(dst, b)
		}
	}
	return dst
}

// killedLaterInBlock reports whether some unguarded instruction after
// idx in b redefines r before the block ends.
func killedLaterInBlock(b *prog.Block, idx int, r isa.Reg) bool {
	for _, in := range b.Instrs[idx+1:] {
		if !in.Guarded() && definesReg(in, r) {
			return true
		}
	}
	return false
}

// usesReg reports whether in reads r (guard included).
func usesReg(in *isa.Instr, r isa.Reg) bool {
	var buf [3]isa.Reg
	return slices.Contains(in.AppendUses(buf[:0]), r)
}
