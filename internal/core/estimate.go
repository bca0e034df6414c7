package core

import (
	"fmt"

	"specguard/internal/dep"
	"specguard/internal/isa"
	"specguard/internal/machine"
	"specguard/internal/profile"
	"specguard/internal/prog"
	"specguard/internal/sched"
	"specguard/internal/xform"
)

// estimator computes per-occurrence cycle estimates for the decision
// gates of Fig. 6.
//
// Unlike the paper's Fig. 2 arithmetic (faithfully reproduced in
// costmodel.go), the live estimator uses a *throughput* model
// calibrated against this repository's own out-of-order pipeline: the
// OOO window already extracts the static schedule's parallelism across
// block boundaries, so what a transformation really trades on this
// machine is retire bandwidth (instructions executed per occurrence)
// against misprediction stalls. Cycle cost of a code region is
// therefore instructions/width, plus misprediction charges, plus
// fetch-break charges for extra taken branches. EXPERIMENTS.md
// documents the measurements behind this calibration.
type estimator struct {
	p    *prog.Program
	f    *prog.Func
	m    *machine.Model
	opts Options
	bp   *profile.BranchProfile

	// alias is the probability this branch's 2-bit counter is shared
	// with another hot branch. Aliased counters see interleaved
	// outcome streams and degrade toward coin-flip prediction;
	// branch-likely code has no counter and is immune — the paper's
	// motivation via [9, 5]: "less branch instructions which compete
	// against each other".
	alias float64
}

func newEstimator(p *prog.Program, f *prog.Func, m *machine.Model, opts Options, bp *profile.BranchProfile) *estimator {
	return &estimator{p: p, f: f, m: m, opts: opts, bp: bp,
		alias: opts.aliasFraction(m)}
}

// aliasMissRate blends a structural miss estimate with the degraded
// accuracy of an aliased counter (~45% miss against an interfering
// stream).
func (e *estimator) aliasMissRate(structural float64) float64 {
	return (1-e.alias)*structural + e.alias*0.45
}

// twoBitMissRate estimates the 2-bit predictor's miss rate on a branch
// with taken-probability pt and no exploitable structure.
func twoBitMissRate(pt float64) float64 {
	if pt > 0.5 {
		return 1 - pt
	}
	return pt
}

// phaseAwareMissRate estimates the 2-bit miss rate given the phase
// segmentation: within a long phase the counter locks onto the phase's
// majority outcome, so each phase contributes its minority frequency.
func phaseAwareMissRate(segs []profile.Segment, total float64) float64 {
	if len(segs) == 0 || total == 0 {
		return 0
	}
	miss := 0.0
	for _, s := range segs {
		frac := float64(s.Len()) / total
		miss += frac * twoBitMissRate(s.TakenFreq)
	}
	return miss
}

// cloneInstrs deep-copies an instruction list.
func cloneInstrs(ins []*isa.Instr) []*isa.Instr {
	out := make([]*isa.Instr, len(ins))
	for i, in := range ins {
		out[i] = in.Clone()
	}
	return out
}

// sideCount returns the instruction count of a side block, excluding
// its terminating jump (which disappears in merged/fall-through forms).
func sideCount(b *prog.Block) float64 {
	if b == nil {
		return 0
	}
	n := 0
	for _, in := range b.Instrs {
		if in.Op != isa.J {
			n++
		}
	}
	return float64(n)
}

// width is the machine's issue/retire width as a float.
func (e *estimator) width() float64 { return float64(e.m.IssueWidth) }

// regionWork returns the expected instructions per occurrence of the
// region (branch block + weighted sides; the join is common to every
// alternative and omitted).
func (e *estimator) regionWork(h *xform.Hammock, pTaken float64) float64 {
	return float64(len(h.B.Instrs)) +
		pTaken*sideCount(h.Taken) + (1-pTaken)*sideCount(h.Fall)
}

// takenBreak charges the fetch break of a taken branch (the front end
// redirects and loses part of a fetch cycle; the decoupling fetch
// buffer absorbs most of it, hence well under a full cycle).
const takenBreak = 0.3

// baseCost is the untransformed branch: region work over width plus
// the (aliasing-aware, phase-aware) 2-bit misprediction charge and the
// taken-path fetch break.
func (e *estimator) baseCost(h *xform.Hammock) float64 {
	pt := e.bp.TakenFreq()
	segs := e.bp.Segments(e.opts.SegOpts)
	miss := e.aliasMissRate(phaseAwareMissRate(segs, float64(e.bp.Count())))
	return e.regionWork(h, pt)/e.width() + miss*e.opts.MispredictCost + pt*takenBreak
}

// guardedCost is the if-converted region: both sides always execute,
// each guarded non-move costs an extra conditional move after lowering,
// plus the predicate define — but no branch at all: no misprediction,
// no fetch break. On top of the instruction count, a serialization
// charge of (1 + side ops)/width accounts for the pdef→op→cmov
// dependence chains the width-only view misses; without it the model
// calls marginal conversions (espresso's well-predicted cover/sparse
// branches) wins that measure as ~15% cycle regressions — see
// EXPERIMENTS.md's espresso note.
func (e *estimator) guardedCost(h *xform.Hammock) (float64, error) {
	if h.Taken != nil && !sideConvertible(h.Taken) || h.Fall != nil && !sideConvertible(h.Fall) {
		return 0, fmt.Errorf("core: region not if-convertible")
	}
	sides := sideCount(h.Taken) + sideCount(h.Fall)
	body := float64(len(h.B.Instrs) - 1) // branch replaced by pdef (+1 below)
	work := body + 1 + 2*sides + 1       // +1 jump to join
	serial := 1 + sides                  // cmov chain depth, amortized
	return (work + serial) / e.width(), nil
}

// sideConvertible mirrors xform's hammock side constraints (already
// checked by MatchHammock; kept for clone-free estimation). Guarded
// instructions are convertible — IfConvert composes their predicates
// (nested predication) — at the cost of the composition ops, which the
// coarse 2× lowering factor in guardedCost absorbs.
func sideConvertible(b *prog.Block) bool {
	for _, in := range b.Instrs {
		if in.Op == isa.Div {
			return false
		}
		if in.Op.IsControl() && in.Op != isa.J {
			return false
		}
	}
	return true
}

// dispatchWork returns the per-occurrence instruction count of the
// split dispatch: counter increment plus, per biased level, a phase
// predicate and a predicate branch (middle levels need a pand pair).
func dispatchWork(levels int) float64 { return 1 + 2.5*float64(levels) }

// phasesCost estimates the split configuration: dispatch work, each
// biased phase running a branch-likely version (no predictor entry,
// missing only its minority outcomes), and mixed phases on whichever
// of {2-bit residual, guarded residual} is cheaper.
func (e *estimator) phasesCost(h *xform.Hammock, segs []profile.Segment) float64 {
	total := float64(e.bp.Count())
	if total == 0 {
		return 0
	}
	levels := 0
	for _, s := range segs {
		if s.Class != profile.SegMixed {
			levels++
		}
	}
	cost := dispatchWork(levels)/e.width() + takenBreak*0.5*float64(levels)

	guarded := -1.0
	if !e.opts.DisableGuarding {
		if g, err := e.guardedCost(h); err == nil {
			guarded = g
		}
	}
	for _, s := range segs {
		frac := float64(s.Len()) / total
		pt := s.TakenFreq
		work := e.regionWork(h, pt)/e.width() + pt*takenBreak
		switch s.Class {
		case profile.SegTaken, profile.SegNotTaken:
			cost += frac * (work + twoBitMissRate(pt)*e.opts.MispredictCost)
		default:
			mixed := work + e.aliasMissRate(twoBitMissRate(pt))*e.opts.MispredictCost
			if guarded >= 0 && guarded < mixed {
				mixed = guarded
			}
			cost += frac * mixed
		}
	}
	return cost
}

// mixedResidualCosts returns (predicted, guarded) per-occurrence costs
// for a residual region at 50/50 behaviour; used by the
// residual-guarding decision after a split.
func (e *estimator) mixedResidualCosts(h *xform.Hammock) (float64, float64, error) {
	predicted := e.regionWork(h, 0.5)/e.width() +
		e.aliasMissRate(0.5)*e.opts.MispredictCost + 0.5*takenBreak
	guarded, err := e.guardedCost(h)
	return predicted, guarded, err
}

// periodicCost estimates the counter split of a cyclic pattern
// honestly: the version branches are near-perfect likely branches, but
// the cyclic unpredictability reappears on the dispatch branch, whose
// outcome is the pattern itself — a single dynamic branch cannot hide
// a cyclic pattern from a 2-bit predictor, only move it. Guarding is
// therefore usually preferred for periodic branches (the optimizer
// tries it first; the ablation bench quantifies the difference).
func (e *estimator) periodicCost(h *xform.Hammock, per profile.Periodicity) float64 {
	pt := e.bp.TakenFreq()
	cost := (dispatchWork(1) + 3) / e.width() // + modular-wrap ops
	cost += e.regionWork(h, pt)/e.width() + pt*takenBreak
	cost += (1 - per.MatchRate) * e.opts.MispredictCost                 // version residual
	cost += e.aliasMissRate(twoBitMissRate(pt)) * e.opts.MispredictCost // dispatch branch
	return cost
}

// ---- Speculation benefit gate (shared with the speculation pass) ----

// hoistSim moves eligible instructions from the top of side into b
// while b's schedule does not lengthen, mirroring the speculation
// pass's vacant-slot policy (renaming copies are ignored: they rarely
// change the schedule length). It returns the updated lists.
func hoistSim(b, side []*isa.Instr, m *machine.Model) (nb, nside []*isa.Instr) {
	baseLen := sched.Length(b, m)
	var stayDefs dep.RegSet
	seenStore := false
	var keep []*isa.Instr
	for _, in := range side {
		ok := hoistEligible(in) && !(in.Op.IsLoad() && seenStore)
		if ok {
			var ubuf [3]isa.Reg
			for _, u := range in.AppendUses(ubuf[:0]) {
				if stayDefs.Has(u) {
					ok = false
					break
				}
			}
		}
		if ok {
			trial := appendBeforeTerminator(b, in)
			if sched.Length(trial, m) <= baseLen {
				b = trial
				continue
			}
		}
		keep = append(keep, in)
		stayDefs = stayDefs.Union(dep.DefsOf(in))
		if in.Op.IsStore() {
			seenStore = true
		}
	}
	return b, keep
}

func hoistEligible(in *isa.Instr) bool {
	op := in.Op
	switch {
	case in.Guarded(), op.IsControl(), op.IsStore(), op.IsPredDef(),
		op == isa.Div, op == isa.Nop:
		return false
	case op.IsLoad():
		return false // the estimator stays conservative about loads
	}
	return true
}

func appendBeforeTerminator(b []*isa.Instr, in *isa.Instr) []*isa.Instr {
	cut := len(b)
	if cut > 0 && b[cut-1].Op.IsControl() {
		cut--
	}
	out := make([]*isa.Instr, 0, len(b)+1)
	out = append(out, b[:cut]...)
	out = append(out, in)
	out = append(out, b[cut:]...)
	return out
}

// loopCarried reports whether the hoist candidate chain is a loop
// recurrence: an instruction both reading and writing the same
// register feeds next iteration's value, so shortening its block-local
// placement cannot raise throughput (the recurrence bounds it).
func loopCarried(in *isa.Instr) bool {
	var dbuf [1]isa.Reg
	var ubuf [3]isa.Reg
	for _, d := range in.AppendDefs(dbuf[:0]) {
		for _, u := range in.AppendUses(ubuf[:0]) {
			if d == u {
				return true
			}
		}
	}
	return false
}

// estimateHoistBenefit decides whether hoisting side's eligible prefix
// into b pays on an out-of-order machine, where static vacant slots
// are largely illusory (the hardware already overlaps neighbouring
// blocks) and loop-carried recurrences gain nothing from placement.
// The side's critical-path reduction — counting only non-recurrence
// instructions — is discounted 50% for the OOO overlap and charged
// with the wasted issue bandwidth of executing k speculated
// instructions on the other path, plus one cycle for the rename copies
// left behind. It returns the number of instructions worth hoisting
// (0 = don't).
func estimateHoistBenefit(b, side *prog.Block, q float64, m *machine.Model) int {
	nb, nside := hoistSim(cloneInstrs(b.Instrs), cloneInstrs(side.Instrs), m)
	_ = nb
	k := len(side.Instrs) - len(nside)
	if k == 0 {
		return 0
	}
	// Recurrence filter: if the hoisted prefix is dominated by
	// loop-carried chains, there is no throughput to win.
	carried := 0
	hoistedSet := len(side.Instrs) - len(nside)
	seen := 0
	for _, in := range side.Instrs {
		if seen >= hoistedSet {
			break
		}
		if hoistEligible(in) {
			seen++
			if loopCarried(in) {
				carried++
			}
		}
	}
	effective := float64(k - carried)
	before := sched.Length(side.Instrs, m)
	after := sched.Length(nside, m)
	delta := (float64(before-after) - 1) * effective / float64(k)
	gain := 0.5*q*delta - (1-q)*float64(k)/float64(m.IssueWidth)
	if gain <= 0 {
		return 0
	}
	return k
}
