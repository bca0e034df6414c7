package analysis

import (
	"slices"

	"specguard/internal/dep"
	"specguard/internal/isa"
	"specguard/internal/machine"
	"specguard/internal/prog"
)

// rule_taint.go is the speculative-leak pass: a forward may-taint
// analysis over the product lattice (register taint × memory-zone
// taint), plus a bounded speculative-reachability BFS, feeding the three
// SevLeak rules.
//
// The abstraction mirrors the dynamic tracker (interp.TaintMachine) and
// over-approximates it, which is what the fuzz soundness oracle checks:
//
//   - register taint is a dep.RegSet per program point; an unguarded
//     def kills, a guarded def only gens (the guard may be false and the
//     old — possibly tainted — value survives);
//   - memory is partitioned into zones: one per declared region plus
//     one "outside" zone. Secret regions start tainted; a store whose
//     value, address or guard may be tainted taints every zone its
//     address can refer to. Zones never untaint (the dynamic tracker's
//     strong updates are a precision the static pass soundly gives up);
//   - store/load addresses are attributed through reaching
//     definitions: a base register whose reaching defs are all
//     unguarded li constants resolves to exact zones, anything else to
//     all zones;
//   - calls are context-insensitive: the callee's entry fact is the
//     union over its call sites, and the call transfer unions in the
//     callee's exit fact (taint at its rets) without killing anything.
//
// The whole system — per-function solves, callee entry/exit summaries,
// zone taints — is iterated to a global fixpoint; every component only
// grows, so it terminates.
//
// Findings:
//
//	secret-dep-load    memory access whose address register may be
//	                   tainted at the access
//	spec-secret-load   the same, when the access is also within the
//	                   machine's speculative window (SpecWindow) of a
//	                   conditional branch — i.e. a mispredict can
//	                   execute it on the wrong path before the squash.
//	                   Subsumes secret-dep-load at that site.
//	secret-dep-branch  conditional branch whose condition may be
//	                   tainted
//
// Soundness against the dynamic tracker: the pipeline counts a
// wrong-path access when the walker's address register is tainted at
// dynamic distance d ≤ SpecWindow past a mispredicted branch. The
// wrong path is a CFG path starting at a successor of the branch, so
// the static fact at the access over-approximates the walker's state,
// and the static BFS distance (which may shortcut through a callee via
// the call fall-through edge) never exceeds d. Every dynamically
// flagged access therefore carries a spec-secret-load finding.

// taintPass carries the global fixpoint state.
type taintPass struct {
	p    *prog.Program
	opts Options
	res  *Result

	regions []prog.Region // sorted; zone i = regions[i], zone len = outside
	zones   uint64        // taint bit per zone
	allMask uint64

	entry map[string]dep.RegSet // per-function entry fact
	exit  map[string]dep.RegSet // per-function fact at its rets

	// Per function (by index): its block index, its reaching
	// definitions and its in-facts by block number.
	ixs []*cfgIndex
	rds []*ReachDefs
	in  [][]dep.RegSet
}

// newTaintPass sets the pass up over Analyze's per-function block
// indices and reaching definitions. A program with no secret regions is
// exempt: it returns nil.
func newTaintPass(p *prog.Program, opts Options, res *Result, ixs []*cfgIndex, rds []*ReachDefs) *taintPass {
	secret := false
	for _, r := range p.Regions {
		secret = secret || r.Secret
	}
	if !secret {
		return nil
	}

	tp := &taintPass{
		p:       p,
		opts:    opts,
		res:     res,
		regions: prog.SortedRegions(p.Regions),
		entry:   make(map[string]dep.RegSet, len(p.Funcs)),
		exit:    make(map[string]dep.RegSet, len(p.Funcs)),
		ixs:     ixs,
		rds:     rds,
		in:      make([][]dep.RegSet, len(p.Funcs)),
	}
	tp.allMask = 1<<uint(len(tp.regions)+1) - 1
	for i, r := range tp.regions {
		if r.Secret {
			tp.zones |= 1 << uint(i)
		}
	}
	for fi, f := range p.Funcs {
		tp.in[fi] = make([]dep.RegSet, len(f.Blocks))
	}
	return tp
}

// solveFixpoint iterates per-function solves and the global summaries
// (callee entries/exits, zone taints) until nothing grows.
func (tp *taintPass) solveFixpoint() {
	for changed := true; changed; {
		changed = false
		for fi, f := range tp.p.Funcs {
			if len(f.Blocks) == 0 {
				continue
			}
			in, out := tp.solveFunc(fi)
			if !slices.Equal(in, tp.in[fi]) {
				tp.in[fi] = in
				changed = true
			}
			ex := tp.exit[f.Name]
			for bi, b := range f.Blocks {
				if t := b.Terminator(); t != nil && t.Op == isa.Ret {
					ex = ex.Union(out[bi])
				}
			}
			if !ex.Equal(tp.exit[f.Name]) {
				tp.exit[f.Name] = ex
				changed = true
			}
		}
		if tp.sweepSummaries() {
			changed = true
		}
	}
}

// solveFunc runs the forward may-taint worklist over function fi with
// the current global summaries.
func (tp *taintPass) solveFunc(fi int) (in, out []dep.RegSet) {
	ix := tp.ixs[fi]
	return solve(ix, flow[dep.RegSet]{
		forward: true,
		boundary: func(bi int, _ dep.RegSet) dep.RegSet {
			if bi == 0 {
				return tp.entry[ix.f.Name]
			}
			return dep.RegSet{}
		},
		top:   emptySet,
		meet:  dep.RegSet.Union,
		equal: dep.RegSet.Equal,
		transfer: func(bi int, _, x dep.RegSet) dep.RegSet {
			for i, in := range ix.f.Blocks[bi].Instrs {
				x = tp.step(fi, bi, i, in, x)
			}
			return x
		},
	})
}

// step is the per-instruction taint transfer at instruction i of block
// bi of function fi.
func (tp *taintPass) step(fi, bi, i int, in *isa.Instr, x dep.RegSet) dep.RegSet {
	switch {
	case in.Op == isa.Call:
		return x.Union(tp.exit[in.Label])
	case in.Op.IsLoad():
		t := x.Intersects(dep.UsesOf(in)) || // tainted address or guard
			tp.zones&tp.attr(fi, bi, i, in) != 0 // word may hold a secret
		if !in.Guarded() {
			x = x.Minus(dep.DefsOf(in))
		}
		if t {
			x.Add(in.Rd)
		}
		return x
	case in.Op.IsStore():
		return x // zone effects are applied by sweepSummaries
	default:
		defs := dep.DefsOf(in)
		if defs.Empty() {
			return x
		}
		t := x.Intersects(dep.UsesOf(in))
		if !in.Guarded() {
			x = x.Minus(defs)
		}
		if t {
			x = x.Union(defs)
		}
		return x
	}
}

// sweepSummaries walks every instruction with the solved facts and
// grows the global state: call-site facts into callee entries, tainted
// stores into zone taints. Reports whether anything grew.
func (tp *taintPass) sweepSummaries() bool {
	grew := false
	for fi, f := range tp.p.Funcs {
		for bi, b := range f.Blocks {
			x := tp.in[fi][bi]
			for i, in := range b.Instrs {
				switch {
				case in.Op == isa.Call:
					e := tp.entry[in.Label].Union(x)
					if !e.Equal(tp.entry[in.Label]) {
						tp.entry[in.Label] = e
						grew = true
					}
				case in.Op.IsStore():
					// UsesOf covers the stored value, the base register
					// and the guard — any of them tainted taints the word.
					if x.Intersects(dep.UsesOf(in)) {
						m := tp.attr(fi, bi, i, in)
						if tp.zones|m != tp.zones {
							tp.zones |= m
							grew = true
						}
					}
				}
				x = tp.step(fi, bi, i, in, x)
			}
		}
	}
	return grew
}

// attr resolves the zones a memory access may touch. A base register
// whose reaching definitions are all unguarded li constants gives exact
// zones; r0 with no reaching defs is the constant zero; anything else
// is unknown (all zones).
func (tp *taintPass) attr(fi, bi, i int, in *isa.Instr) uint64 {
	rd := tp.rds[fi]
	var buf [8]int32
	sites := rd.reaching(buf[:0], bi, i, in.Rs)
	if len(sites) == 0 {
		if in.Rs.IsZero() {
			return tp.zoneOf(in.Imm)
		}
		return tp.allMask
	}
	var m uint64
	for _, k := range sites {
		d := &rd.sites[k]
		if d.Instr.Op != isa.Li || d.Instr.Guarded() {
			return tp.allMask
		}
		m |= tp.zoneOf(d.Instr.Imm + in.Imm)
	}
	return m
}

// zoneOf maps an address to its zone bits: every declared region
// containing it, or the outside zone.
func (tp *taintPass) zoneOf(addr int64) uint64 {
	var m uint64
	for i, r := range tp.regions {
		if r.Contains(addr) {
			m |= 1 << uint(i)
		}
	}
	if m == 0 {
		m = 1 << uint(len(tp.regions)) // outside
	}
	return m
}

// report emits the findings from the final facts.
func (tp *taintPass) report() {
	win := tp.opts.Model
	if win == nil {
		win = machine.R10000()
	}
	dist := tp.specDistances()
	w := win.SpecWindow()

	for fi, f := range tp.p.Funcs {
		for bi, b := range f.Blocks {
			x := tp.in[fi][bi]
			for i, in := range b.Instrs {
				switch {
				case in.Op.IsMem() && x.Has(in.Rs):
					if d, ok := dist[node{b, i}]; ok && d <= w {
						tp.diag(RuleSpecSecretLoad, fi, f, b, i,
							"secret-tainted address reachable %d instruction(s) past a conditional branch (speculative window %d): a mispredict can touch it on the wrong path", d, w)
					} else {
						tp.diag(RuleSecretDepLoad, fi, f, b, i,
							"memory access through %s, which may carry secret-region taint", in.Rs)
					}
				case in.Op.IsCondBranch() && x.Intersects(dep.UsesOf(in)):
					tp.diag(RuleSecretDepBranch, fi, f, b, i,
						"branch condition may carry secret-region taint: outcome (and thus timing) depends on a secret")
				}
				x = tp.step(fi, bi, i, in, x)
			}
		}
	}
}

// diag appends one SevLeak diagnostic.
func (tp *taintPass) diag(rule string, fi int, f *prog.Func, b *prog.Block, idx int, format string, args ...any) {
	a := &funcAnalysis{p: tp.p, f: f, fi: fi, res: tp.res}
	a.diag(rule, SevLeak, b, idx, format, args...)
}

// node is one instruction position, program-wide (block pointers are
// unique across functions).
type node struct {
	b *prog.Block
	i int
}

// specDistances runs a multi-source BFS from both successors of every
// conditional branch and returns the minimum speculative distance of
// each instruction (1 = first instruction past a branch). Call edges
// descend into the callee entry AND shortcut to the fall-through, so a
// static distance never exceeds any dynamic wrong-path distance.
func (tp *taintPass) specDistances() map[node]int {
	dist := make(map[node]int)
	var frontier []node
	seen := func(n node, d int) {
		if _, ok := dist[n]; !ok {
			dist[n] = d
			frontier = append(frontier, n)
		}
	}

	for _, f := range tp.p.Funcs {
		for _, b := range f.Blocks {
			if t := b.Terminator(); t != nil && t.Op.IsCondBranch() {
				for _, s := range b.Succs {
					for _, n := range tp.firstNodes(s, nil) {
						seen(n, 1)
					}
				}
			}
		}
	}

	for d := 1; len(frontier) > 0; d++ {
		cur := frontier
		frontier = nil
		for _, n := range cur {
			for _, s := range tp.succNodes(n) {
				seen(s, d+1)
			}
		}
	}
	return dist
}

// firstNodes resolves the first instruction(s) of b, skipping through
// empty blocks (visited guards transform-created empty cycles).
func (tp *taintPass) firstNodes(b *prog.Block, visited map[*prog.Block]bool) []node {
	if len(b.Instrs) > 0 {
		return []node{{b, 0}}
	}
	if visited[b] {
		return nil
	}
	if visited == nil {
		visited = make(map[*prog.Block]bool)
	}
	visited[b] = true
	var out []node
	for _, s := range b.Succs {
		out = append(out, tp.firstNodes(s, visited)...)
	}
	return out
}

// succNodes enumerates the control successors of one instruction.
func (tp *taintPass) succNodes(n node) []node {
	if n.i+1 < len(n.b.Instrs) {
		return []node{{n.b, n.i + 1}}
	}
	in := n.b.Instrs[n.i]
	var out []node
	if in.Op == isa.Call {
		if callee := tp.p.Func(in.Label); callee != nil && len(callee.Blocks) > 0 {
			out = append(out, tp.firstNodes(callee.Entry(), nil)...)
		}
	}
	for _, s := range n.b.Succs {
		out = append(out, tp.firstNodes(s, nil)...)
	}
	return out
}
