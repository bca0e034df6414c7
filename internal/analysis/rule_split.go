package analysis

import (
	"math"
	"slices"

	"specguard/internal/isa"
	"specguard/internal/prog"
)

// interval is a half-open range [lo, hi) of counter values, with
// math.MinInt64 / math.MaxInt64 standing in for unbounded ends.
type interval struct {
	lo, hi int64
}

func (iv interval) overlaps(o interval) bool {
	lo := iv.lo
	if o.lo > lo {
		lo = o.lo
	}
	hi := iv.hi
	if o.hi < hi {
		hi = o.hi
	}
	return lo < hi
}

// dispatch is one resolved phase dispatch: a bp/bpl whose predicate is
// a comparison interval over a counter register.
type dispatch struct {
	block   *prog.Block
	bi      int // block's number
	index   int
	counter isa.Reg
	iv      interval
}

// checkSplits audits split-branch dispatch structure (Figs. 6–7). A
// split branch classifies each loop iteration by an occurrence counter:
// the dispatch chain tests the counter against phase boundaries with
// plt/pge/pand and branches with bp/bpl to per-phase versions. Two
// obligations are checked:
//
//   - split-phase-overlap (error): two dispatches on the same counter
//     accept overlapping counter intervals. The chain dispatches
//     first-match, so an overlap silently steals iterations from the
//     later phase — the per-phase branch-likely hints are then wrong
//     in exactly the way splitting was meant to prevent, and no
//     dynamic run can tell (the program still computes the right
//     values). Only the static pass sees it.
//
//   - split-counter (error): the counter feeding ≥2 dispatches (or a
//     periodic wrap group) is not maintained as an occurrence counter:
//     initialized by exactly one li in the entry block and advanced by
//     exactly one unguarded `add c, c, 1`, with guarded movs permitted
//     (the periodic scheme's wrap `(pw) mov c, r0`). Any other writer
//     desynchronizes the counter from the iteration number and every
//     phase predicate with it.
//
// Dispatches whose predicate does not resolve through unique reaching
// definitions to plt/pge/pand over one counter are skipped: programs
// that branch on ad-hoc predicates (peq, multi-def joins) are not
// split-branch output and carry no phase contract.
func (a *funcAnalysis) checkSplits() {
	var dispatches []dispatch
	for bi, b := range a.f.Blocks {
		if !a.reach[bi] {
			continue
		}
		for i, in := range b.Instrs {
			if in.Op != isa.Bp && in.Op != isa.Bpl {
				continue
			}
			counter, iv, ok := a.resolvePredInterval(bi, i, in.Rs, 0)
			if !ok {
				continue
			}
			dispatches = append(dispatches, dispatch{block: b, bi: bi, index: i, counter: counter, iv: iv})
		}
	}

	byCounter := make(map[isa.Reg][]dispatch)
	for _, d := range dispatches {
		byCounter[d.counter] = append(byCounter[d.counter], d)
	}

	for _, c := range orderedCounters(byCounter) {
		group := byCounter[c]
		for i := 1; i < len(group); i++ {
			for j := 0; j < i; j++ {
				if group[i].iv.overlaps(group[j].iv) {
					a.diag(RuleSplitOverlap, SevError, group[i].block, group[i].index,
						"phase interval %s of counter %s overlaps the dispatch at %s.%s[%d]",
						fmtInterval(group[i].iv), c,
						a.f.Name, group[j].block.Name, group[j].index)
				}
			}
		}
		if len(group) >= 2 || a.hasPeriodicWrap(c) {
			a.checkCounterDiscipline(c, group)
		}
	}
}

// orderedCounters returns map keys in register-encoding order so the
// diagnostics are deterministic.
func orderedCounters(m map[isa.Reg][]dispatch) []isa.Reg {
	var out []isa.Reg
	for r := isa.Reg(1); int(r) < 128; r++ {
		if !r.Valid() {
			break
		}
		if _, ok := m[r]; ok {
			out = append(out, r)
		}
	}
	return out
}

func fmtInterval(iv interval) string {
	switch {
	case iv.lo == math.MinInt64 && iv.hi == math.MaxInt64:
		return "(-inf, +inf)"
	case iv.lo == math.MinInt64:
		return "(-inf, " + itoa(iv.hi) + ")"
	case iv.hi == math.MaxInt64:
		return "[" + itoa(iv.lo) + ", +inf)"
	}
	return "[" + itoa(iv.lo) + ", " + itoa(iv.hi) + ")"
}

func itoa(v int64) string {
	neg := v < 0
	if neg {
		v = -v
	}
	var buf [20]byte
	i := len(buf)
	for {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
		if v == 0 {
			break
		}
	}
	if neg {
		i--
		buf[i] = '-'
	}
	return string(buf[i:])
}

// resolvePredInterval resolves predicate pr, used at instruction idx of
// block bi, to a
// counter interval by chasing unique unguarded reaching definitions:
//
//	plt pd, c, imm  → [min, imm)
//	pge pd, c, imm  → [imm, max)
//	pand pd, ps, pt → intersection (both sides must resolve to the
//	                  same counter)
//
// Anything else (peq, guarded defs, multiple reaching defs, register
// comparands) does not express an interval and fails the resolution.
func (a *funcAnalysis) resolvePredInterval(bi, idx int, pr isa.Reg, depth int) (isa.Reg, interval, bool) {
	if depth > 4 { // pand chains deeper than any splitter emits
		return isa.NoReg, interval{}, false
	}
	ud := a.rd.uniqueDef(bi, idx, pr)
	if ud == nil || ud.Instr.Guarded() {
		return isa.NoReg, interval{}, false
	}
	in := ud.Instr
	switch in.Op {
	case isa.PLt:
		if in.Rt != isa.NoReg {
			return isa.NoReg, interval{}, false
		}
		return in.Rs, interval{lo: math.MinInt64, hi: in.Imm}, true
	case isa.PGe:
		if in.Rt != isa.NoReg {
			return isa.NoReg, interval{}, false
		}
		return in.Rs, interval{lo: in.Imm, hi: math.MaxInt64}, true
	case isa.PAnd:
		c1, iv1, ok := a.resolvePredInterval(ud.blk, ud.Index, in.Rs, depth+1)
		if !ok {
			return isa.NoReg, interval{}, false
		}
		c2, iv2, ok := a.resolvePredInterval(ud.blk, ud.Index, in.Rt, depth+1)
		if !ok || c1 != c2 {
			return isa.NoReg, interval{}, false
		}
		lo, hi := iv1.lo, iv1.hi
		if iv2.lo > lo {
			lo = iv2.lo
		}
		if iv2.hi < hi {
			hi = iv2.hi
		}
		return c1, interval{lo: lo, hi: hi}, true
	}
	return isa.NoReg, interval{}, false
}

// hasPeriodicWrap detects the periodic splitter's wrap idiom on
// counter c inside one block:
//
//	add c, c, 1
//	peq pw, c, period
//	(pw) mov c, r0
//
// Its dispatch group has a single member (one plt/bp pair), so the
// counter-discipline check keys off this signature instead of group
// size.
func (a *funcAnalysis) hasPeriodicWrap(c isa.Reg) bool {
	for bi, b := range a.f.Blocks {
		if !a.reach[bi] {
			continue
		}
		var wrapPred isa.Reg
		sawInc := false
		for _, in := range b.Instrs {
			switch {
			case in.Op == isa.Add && !in.Guarded() && in.Rd == c && in.Rs == c &&
				in.Rt == isa.NoReg && in.Imm == 1:
				sawInc = true
			case in.Op == isa.PEq && !in.Guarded() && in.Rs == c && in.Rt == isa.NoReg:
				wrapPred = in.Rd
			case in.Op == isa.Mov && in.Guarded() && !in.PredNeg && in.Rd == c &&
				in.Pred == wrapPred && wrapPred.Valid():
				if sawInc {
					return true
				}
			}
		}
	}
	return false
}

// isCounterInc reports whether in is the canonical occurrence-counter
// increment `add c, c, 1`.
func isCounterInc(in *isa.Instr, c isa.Reg) bool {
	return in.Op == isa.Add && !in.Guarded() && in.Rd == c && in.Rs == c &&
		in.Rt == isa.NoReg && in.Imm == 1
}

// checkCounterDiscipline verifies that counter c is maintained as an
// occurrence counter: exactly one li init, in the entry block; every
// other writer is the canonical increment or a guarded wrap mov; and —
// because composed transforms legitimately duplicate the increment
// into mutually exclusive version copies (a split inside another
// split's version) — the per-iteration obligation is checked as a path
// property, not a site count: no execution path may pass through two
// increments without dispatching on c in between.
func (a *funcAnalysis) checkCounterDiscipline(c isa.Reg, group []dispatch) {
	entry := a.f.Entry()
	anchor := group[0]
	inits, incs := 0, 0
	var incSites []dispatch // reuse the (block, index) pair shape
	for bi, b := range a.f.Blocks {
		if !a.reach[bi] {
			continue
		}
		for i, in := range b.Instrs {
			if !definesReg(in, c) {
				continue
			}
			switch {
			case isCounterInc(in, c):
				incs++
				incSites = append(incSites, dispatch{block: b, bi: bi, index: i})
			case in.Op == isa.Li && !in.Guarded():
				inits++
				if b != entry {
					a.diag(RuleSplitCounter, SevError, b, i,
						"phase counter %s is initialized outside the entry block", c)
				}
			case in.Op == isa.Mov && in.Guarded():
				// The periodic wrap `(pw) mov c, r0`: legal.
			default:
				a.diag(RuleSplitCounter, SevError, b, i,
					"phase counter %s has a writer that is neither its init, its increment, nor a guarded wrap", c)
			}
		}
	}
	if inits != 1 {
		a.diag(RuleSplitCounter, SevError, anchor.block, anchor.index,
			"phase counter %s must be initialized by exactly one li in the entry block (found %d)", c, inits)
	}
	if incs == 0 {
		a.diag(RuleSplitCounter, SevError, anchor.block, anchor.index,
			"phase counter %s is never incremented: every iteration dispatches to the same phase", c)
		return
	}

	dispatchAt := make(map[*prog.Block]map[int]bool)
	for _, d := range group {
		if dispatchAt[d.block] == nil {
			dispatchAt[d.block] = make(map[int]bool)
		}
		dispatchAt[d.block][d.index] = true
	}
	for _, site := range incSites {
		if b, i, hit := a.findDoubleInc(c, site, dispatchAt); hit {
			a.diag(RuleSplitCounter, SevError, b, i,
				"phase counter %s can be incremented again (after %s.%s[%d]) before any dispatch consumes it",
				c, a.f.Name, site.block.Name, site.index)
		}
	}
}

// findDoubleInc walks forward from the increment at site and reports
// the first other increment of c reachable without crossing a dispatch
// on c. Block-entry states are visited once, so the walk terminates on
// loops; a cycle back through the original site without a dispatch is
// itself a violation.
func (a *funcAnalysis) findDoubleInc(c isa.Reg, site dispatch, dispatchAt map[*prog.Block]map[int]bool) (*prog.Block, int, bool) {
	type pos struct {
		b *prog.Block
		i int
	}
	var queue []pos
	entered := make(map[*prog.Block]bool)
	queue = append(queue, pos{site.block, site.index + 1})
	for len(queue) > 0 {
		p := queue[0]
		queue = queue[1:]
		stopped := false
		for i := p.i; i < len(p.b.Instrs); i++ {
			if isCounterInc(p.b.Instrs[i], c) {
				return p.b, i, true
			}
			if dispatchAt[p.b][i] {
				stopped = true
				break
			}
		}
		if stopped {
			continue
		}
		for _, s := range p.b.Succs {
			if !entered[s] {
				entered[s] = true
				queue = append(queue, pos{s, 0})
			}
		}
	}
	return nil, 0, false
}

// definesReg reports whether in writes r.
func definesReg(in *isa.Instr, r isa.Reg) bool {
	var buf [1]isa.Reg
	return slices.Contains(in.AppendDefs(buf[:0]), r)
}
