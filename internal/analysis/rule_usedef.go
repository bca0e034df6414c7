package analysis

import (
	"specguard/internal/dep"
	"specguard/internal/isa"
)

// checkDefs walks every reachable instruction with the must-defined set
// threaded through it and reports:
//
//   - guard-undef-pred (error): a guard predicate that is not defined
//     on every path to the guarded instruction. If-conversion always
//     emits the predicate definition on the unique path to its guarded
//     instructions, so a violation means a transform moved a guarded
//     instruction somewhere its predicate may be stale garbage.
//   - dead-guard (warn): a guard on the hardwired p0 — vacuous when
//     positive, never-executes when negated.
//   - use-before-def (warn): any register read before a definition on
//     some path. Architectural state is zero-initialized so this is
//     well-defined, which is why it is a warning; it is deduplicated
//     per (function, register) to keep idiomatic zero-init reads from
//     drowning the report.
//
// The rule is deliberately inert in called functions: their entry
// boundary is the universe (the caller's registers are all live-in to
// them by convention), so only the program entry function can produce
// findings. See mustDefined.
func (a *funcAnalysis) checkDefs() {
	warned := make(map[isa.Reg]bool)
	var ubuf [3]isa.Reg
	for bi, b := range a.f.Blocks {
		if !a.reach[bi] {
			continue
		}
		must := a.mustIn[bi]
		for i, in := range b.Instrs {
			if in.Pred.IsTruePred() {
				if in.PredNeg {
					a.diag(RuleDeadGuard, SevWarn, b, i,
						"guard (!p0) is always false: the instruction never executes")
				} else {
					a.diag(RuleDeadGuard, SevWarn, b, i,
						"guard (p0) is always true: the guard is vacuous")
				}
			} else if in.Pred.Valid() && !must.Has(in.Pred) {
				a.diag(RuleGuardUndef, SevError, b, i,
					"guard predicate %s is not defined on every path to this instruction", in.Pred)
			}

			for _, u := range in.AppendUses(ubuf[:0]) {
				if u == in.Pred {
					continue // the guard is checked above, as an error
				}
				if !u.Valid() || must.Has(u) || warned[u] {
					continue
				}
				warned[u] = true
				a.diag(RuleUseBeforeDef, SevWarn, b, i,
					"%s may be read before any definition reaches it (reads architectural zero)", u)
			}

			if in.Op == isa.Call {
				must = allRegs
			} else if !in.Guarded() {
				must = must.Union(dep.DefsOf(in))
			}
		}
	}
}
