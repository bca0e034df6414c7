package analysis

import (
	"specguard/internal/dep"
	"specguard/internal/isa"
	"specguard/internal/prog"
)

// flow describes one iterative dataflow problem over a function's CFG.
// The solver is generic over the fact type so RegSet problems
// (must-definedness, observed reads) and bitset problems (reaching
// definitions, available copies) share one worklist.
type flow[T any] struct {
	forward bool
	// boundary supplies the fact entering a block with no predecessors
	// (forward) or leaving a block with no successors (backward).
	boundary func(b *prog.Block) T
	// top is the identity of meet: the initial optimistic value.
	top func() T
	// meet combines facts flowing in from multiple edges.
	meet  func(a, b T) T
	equal func(a, b T) bool
	// transfer pushes a fact through a whole block: in→out (forward)
	// or out→in (backward).
	transfer func(b *prog.Block, x T) T
}

// solve runs the worklist algorithm to a fixpoint and returns the
// per-block in and out facts. Unreachable blocks are solved too (their
// facts start from boundary/top), so rule passes can index any block.
func solve[T any](f *prog.Func, fl flow[T]) (in, out map[*prog.Block]T) {
	in = make(map[*prog.Block]T, len(f.Blocks))
	out = make(map[*prog.Block]T, len(f.Blocks))
	for _, b := range f.Blocks {
		in[b] = fl.top()
		out[b] = fl.top()
	}

	// Seed the worklist in an order that converges quickly: layout
	// order approximates reverse postorder for forward problems; its
	// reverse approximates postorder for backward problems.
	queue := make([]*prog.Block, 0, len(f.Blocks))
	onQueue := make(map[*prog.Block]bool, len(f.Blocks))
	push := func(b *prog.Block) {
		if !onQueue[b] {
			onQueue[b] = true
			queue = append(queue, b)
		}
	}
	if fl.forward {
		for _, b := range f.Blocks {
			push(b)
		}
	} else {
		for i := len(f.Blocks) - 1; i >= 0; i-- {
			push(f.Blocks[i])
		}
	}

	for len(queue) > 0 {
		b := queue[0]
		queue = queue[1:]
		onQueue[b] = false

		if fl.forward {
			var x T
			if len(b.Preds) == 0 {
				x = fl.boundary(b)
			} else {
				x = fl.top()
				for _, p := range b.Preds {
					x = fl.meet(x, out[p])
				}
			}
			in[b] = x
			nout := fl.transfer(b, x)
			if !fl.equal(nout, out[b]) {
				out[b] = nout
				for _, s := range b.Succs {
					push(s)
				}
			}
		} else {
			var x T
			if len(b.Succs) == 0 {
				x = fl.boundary(b)
			} else {
				x = fl.top()
				for _, s := range b.Succs {
					x = fl.meet(x, in[s])
				}
			}
			out[b] = x
			nin := fl.transfer(b, x)
			if !fl.equal(nin, in[b]) {
				in[b] = nin
				for _, p := range b.Preds {
					push(p)
				}
			}
		}
	}
	return in, out
}

// allRegs is the universe: every architectural register.
var allRegs = func() dep.RegSet {
	var s dep.RegSet
	for i := 0; i < isa.NumIntRegs; i++ {
		s.Add(isa.R(i))
	}
	for i := 0; i < isa.NumFPRegs; i++ {
		s.Add(isa.F(i))
	}
	for i := 0; i < isa.NumPredRegs; i++ {
		s.Add(isa.P(i))
	}
	return s
}()

// hardwired is the set of registers defined by the hardware itself:
// r0 reads as zero and p0 as true on every path.
var hardwired = func() dep.RegSet {
	var s dep.RegSet
	s.Add(isa.R(0))
	s.Add(isa.P(0))
	return s
}()

// mustDefined solves the forward all-paths definedness problem:
// MustIn[b] is the set of registers guaranteed to have been written on
// *every* path from function entry to b. Guarded defs do not count
// (the guard may be false); a Call makes everything "defined" — the
// callee's writes are unknown, and charging the caller for them would
// drown real findings in false positives.
//
// entryZeroed selects the entry boundary: the program entry function
// starts from architectural zero-init, where only the hardwired r0/p0
// hold meaningful values; a called function inherits the caller's
// fully-live state (universe), so nothing in it can be "first read".
func mustDefined(f *prog.Func, entryZeroed bool) (in, out map[*prog.Block]dep.RegSet) {
	entry := f.Entry()
	return solve(f, flow[dep.RegSet]{
		forward: true,
		boundary: func(b *prog.Block) dep.RegSet {
			if b == entry && entryZeroed {
				return hardwired
			}
			return allRegs
		},
		top:   func() dep.RegSet { return allRegs },
		meet:  intersect,
		equal: func(a, b dep.RegSet) bool { return a.Equal(b) },
		transfer: func(b *prog.Block, x dep.RegSet) dep.RegSet {
			return mustDefTransfer(b.Instrs, len(b.Instrs), x)
		},
	})
}

// intersect returns a ∩ b. RegSet has no intersection primitive; both
// operands are subsets of allRegs, so a − (U − b) works.
func intersect(a, b dep.RegSet) dep.RegSet { return a.Minus(allRegs.Minus(b)) }

// mustDefTransfer pushes the must-defined set through instrs[:n].
func mustDefTransfer(instrs []*isa.Instr, n int, x dep.RegSet) dep.RegSet {
	for _, in := range instrs[:n] {
		if in.Op == isa.Call {
			x = allRegs
			continue
		}
		if !in.Guarded() {
			x = x.Union(dep.DefsOf(in))
		}
	}
	return x
}

// observedReads solves the backward exposed-reads problem: ObsIn[b] is
// the set of registers that may be *read before being overwritten* on
// some path starting at b. It differs from dep.Liveness in two ways
// that matter for the speculation rule:
//
//   - Ret and Halt observe nothing. dep.Liveness conservatively treats
//     them as all-live barriers (sound for code motion), but that would
//     make every hoisted temp "observable" on the off-trace path of any
//     function that halts, flagging every legitimate hoist.
//   - Call observes exactly the callee's own exposed reads, computed by
//     summarize as a fixpoint over the call graph — the analysis is
//     interprocedural where liveness is per-function.
//
// Unguarded defs kill; guarded defs do not (the guard may be false, so
// the old value can still be read). No kill is credited across a Call:
// whether the callee overwrites a register is unknown.
func observedReads(f *prog.Func, sums map[string]dep.RegSet) (in, out map[*prog.Block]dep.RegSet) {
	return solve(f, flow[dep.RegSet]{
		forward:  false,
		boundary: func(b *prog.Block) dep.RegSet { return dep.RegSet{} },
		top:      func() dep.RegSet { return dep.RegSet{} },
		meet:     func(a, b dep.RegSet) dep.RegSet { return a.Union(b) },
		equal:    func(a, b dep.RegSet) bool { return a.Equal(b) },
		transfer: func(b *prog.Block, x dep.RegSet) dep.RegSet {
			return obsTransfer(b.Instrs, 0, x, sums)
		},
	})
}

// obsTransfer pushes the observed set backward through instrs[from:].
func obsTransfer(instrs []*isa.Instr, from int, x dep.RegSet, sums map[string]dep.RegSet) dep.RegSet {
	for i := len(instrs) - 1; i >= from; i-- {
		in := instrs[i]
		switch in.Op {
		case isa.Ret, isa.Halt:
			// The frame ends here: nothing beyond is observed.
			x = dep.RegSet{}
			continue
		case isa.Call:
			// The callee observes its own exposed reads; it may also
			// write registers, but which is unknown, so nothing that
			// the continuation observes is killed.
			x = x.Union(sums[in.Label])
			continue
		}
		if !in.Guarded() {
			x = x.Minus(dep.DefsOf(in))
		}
		x = x.Union(dep.UsesOf(in))
	}
	return x
}

// summarize computes, for every function, the set of registers it may
// read before writing them (its exposed reads, including those of its
// callees) — a fixpoint over the call graph, so recursion converges to
// the conservative union.
func summarize(p *prog.Program) map[string]dep.RegSet {
	sums := make(map[string]dep.RegSet, len(p.Funcs))
	for changed := true; changed; {
		changed = false
		for _, f := range p.Funcs {
			if len(f.Blocks) == 0 {
				continue
			}
			in, _ := observedReads(f, sums)
			s := in[f.Entry()]
			if !s.Equal(sums[f.Name]) {
				sums[f.Name] = s
				changed = true
			}
		}
	}
	return sums
}
