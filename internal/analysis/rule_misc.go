package analysis

// checkUnreachable reports blocks no path from function entry reaches
// (idom == nil in the dominator computation). They cost I-cache and
// obscure reports but cannot execute, so this is a warning; the other
// rules skip unreachable blocks entirely — dataflow facts there are
// vacuous.
func (a *funcAnalysis) checkUnreachable() {
	for bi, b := range a.f.Blocks {
		if a.reach[bi] {
			continue
		}
		a.diag(RuleUnreachable, SevWarn, b, -1,
			"block is unreachable from function entry")
	}
}

// checkCopies reports copies that cannot change machine state:
// self-copies, and copies whose (dst ← src) fact is already available
// on every path (typically a transform re-inserting a copy that an
// earlier pass already materialized). Dead code, not broken code —
// a warning.
func (a *funcAnalysis) checkCopies() {
	for bi, b := range a.f.Blocks {
		if !a.reach[bi] {
			continue
		}
		for i, in := range b.Instrs {
			p, ok := copyOf(in)
			if !ok {
				continue
			}
			if p.dst == p.src {
				a.diag(RuleRedundantCopy, SevWarn, b, i,
					"copies %s to itself", p.dst)
				continue
			}
			if a.copies.availableAt(bi, i, p.dst, p.src) {
				a.diag(RuleRedundantCopy, SevWarn, b, i,
					"%s already holds %s on every path to this copy", p.dst, p.src)
			}
		}
	}
}

// checkMachineGuards enforces R10000 legality in ModeMachine: the only
// guarded operation the target can issue is the conditional move; any
// other guarded op is a compiler-internal fictional operation that
// xform.LowerGuards failed to expand.
func (a *funcAnalysis) checkMachineGuards() {
	for bi, b := range a.f.Blocks {
		if !a.reach[bi] {
			continue
		}
		for i, in := range b.Instrs {
			if !in.MachineLegal() {
				a.diag(RuleMachineGuard, SevError, b, i,
					"guarded %s is not machine-legal: only conditional moves may carry a predicate after lowering", in.Op)
			}
		}
	}
}
