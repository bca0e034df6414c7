package analysis

import (
	"specguard/internal/dep"
	"specguard/internal/isa"
	"specguard/internal/prog"
)

// cfgIndex numbers one function's blocks in layout order and flattens
// their CFG edges to those numbers, so every dataflow solve keeps its
// facts in slices indexed by block number rather than in maps keyed by
// block pointer. Analyze builds one per function and shares it across
// all of the function's solves.
type cfgIndex struct {
	f *prog.Func
	// Block i's predecessors are edge[at[2i]:at[2i+1]] and its
	// successors edge[at[2i+1]:at[2i+2]], in Preds/Succs order.
	at   []int32
	edge []int32
}

func newCFGIndex(f *prog.Func) *cfgIndex {
	n := len(f.Blocks)
	ix := &cfgIndex{f: f, at: make([]int32, 2*n+1)}
	num := make(map[*prog.Block]int32, n)
	edges := 0
	for i, b := range f.Blocks {
		num[b] = int32(i)
		edges += len(b.Preds) + len(b.Succs)
	}
	ix.edge = make([]int32, 0, edges)
	for i, b := range f.Blocks {
		for _, p := range b.Preds {
			ix.edge = append(ix.edge, num[p])
		}
		ix.at[2*i+1] = int32(len(ix.edge))
		for _, s := range b.Succs {
			ix.edge = append(ix.edge, num[s])
		}
		ix.at[2*i+2] = int32(len(ix.edge))
	}
	return ix
}

// indexAll builds the block index of every function with blocks (nil
// for an empty one), by function number.
func indexAll(p *prog.Program) []*cfgIndex {
	ixs := make([]*cfgIndex, len(p.Funcs))
	for fi, f := range p.Funcs {
		if len(f.Blocks) > 0 {
			ixs[fi] = newCFGIndex(f)
		}
	}
	return ixs
}

func (ix *cfgIndex) preds(i int) []int32 { return ix.edge[ix.at[2*i]:ix.at[2*i+1]] }
func (ix *cfgIndex) succs(i int) []int32 { return ix.edge[ix.at[2*i+1]:ix.at[2*i+2]] }

// flow describes one iterative dataflow problem over a function's CFG.
// The solver is generic over the fact type so RegSet problems
// (must-definedness, observed reads, taint) and bitset problems
// (reaching definitions, available copies) share one worklist. The
// solver owns every fact it holds and hands each back as the storage
// argument x (the zero T when it has none yet): bitset facts are
// rewritten in place there, so a solve allocates its facts once, and
// value facts (dep.RegSet) simply ignore it.
type flow[T any] struct {
	forward bool
	// boundary returns the fact entering block i when it has no
	// predecessors (forward) or leaving it when it has no successors
	// (backward).
	boundary func(i int, x T) T
	// top returns the identity of meet: the initial optimistic value.
	top func(x T) T
	// meet returns x combined with a fact flowing in along one edge.
	meet  func(x, y T) T
	equal func(a, b T) bool
	// transfer pushes y through all of block i — in→out (forward) or
	// out→in (backward) — into x's storage, leaving y unchanged.
	transfer func(i int, x, y T) T
}

// solve runs the worklist algorithm to a fixpoint and returns the
// per-block in and out facts, indexed by block number. Unreachable
// blocks are solved too (their facts start from boundary/top), so rule
// passes can index any block.
func solve[T any](ix *cfgIndex, fl flow[T]) (in, out []T) {
	n := len(ix.f.Blocks)
	in, out = make([]T, n), make([]T, n)
	var none T
	for i := range n {
		in[i], out[i] = fl.top(none), fl.top(none)
	}
	next := fl.top(none) // a transfer's result, swapped in when it changes a fact

	// A FIFO ring: a block is queued at most once at a time, so n slots
	// suffice. Seed it in an order that converges quickly: layout order
	// approximates reverse postorder for forward problems; its reverse
	// approximates postorder for backward problems.
	queue := make([]int32, n)
	onQueue := make([]bool, n)
	head, size := 0, 0
	push := func(b int32) {
		if !onQueue[b] {
			onQueue[b] = true
			queue[(head+size)%n] = b
			size++
		}
	}
	for i := range n {
		if fl.forward {
			push(int32(i))
		} else {
			push(int32(n - 1 - i))
		}
	}

	for size > 0 {
		b := int(queue[head])
		head = (head + 1) % n
		size--
		onQueue[b] = false

		// src and dst are the block's facts on the meet and transfer
		// sides; along and against are the edges each side reads.
		src, dst, along, against := in, out, ix.preds(b), ix.succs(b)
		if !fl.forward {
			src, dst, along, against = out, in, against, along
		}
		x := src[b]
		if len(along) == 0 {
			x = fl.boundary(b, x)
		} else {
			x = fl.top(x)
			for _, p := range along {
				x = fl.meet(x, dst[p])
			}
		}
		src[b] = x
		next = fl.transfer(b, next, x)
		if !fl.equal(next, dst[b]) {
			dst[b], next = next, dst[b]
			for _, s := range against {
				push(s)
			}
		}
	}
	return in, out
}

func emptySet(dep.RegSet) dep.RegSet { return dep.RegSet{} }

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
func mustDefined(ix *cfgIndex, entryZeroed bool) (in, out []dep.RegSet) {
	return solve(ix, flow[dep.RegSet]{
		forward: true,
		boundary: func(i int, _ dep.RegSet) dep.RegSet {
			if i == 0 && entryZeroed {
				return hardwired
			}
			return allRegs
		},
		top:   func(dep.RegSet) dep.RegSet { return allRegs },
		meet:  intersect,
		equal: dep.RegSet.Equal,
		transfer: func(i int, _, y dep.RegSet) dep.RegSet {
			b := ix.f.Blocks[i]
			return mustDefTransfer(b.Instrs, len(b.Instrs), y)
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
func observedReads(ix *cfgIndex, sums map[string]dep.RegSet) (in, out []dep.RegSet) {
	return solve(ix, flow[dep.RegSet]{
		forward:  false,
		boundary: func(int, dep.RegSet) dep.RegSet { return dep.RegSet{} },
		top:      emptySet,
		meet:     dep.RegSet.Union,
		equal:    dep.RegSet.Equal,
		transfer: func(i int, _, y dep.RegSet) dep.RegSet {
			return obsTransfer(ix.f.Blocks[i].Instrs, 0, y, sums)
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
// the conservative union. It also returns each function's observed-in
// facts (nil for an empty function) from the final pass, which changed
// no summary and so solved every function against the final sums: they
// are exactly the facts the speculation rule consumes.
func summarize(p *prog.Program, ixs []*cfgIndex) (sums map[string]dep.RegSet, obsIn [][]dep.RegSet) {
	sums = make(map[string]dep.RegSet, len(p.Funcs))
	obsIn = make([][]dep.RegSet, len(p.Funcs))
	for changed := true; changed; {
		changed = false
		for fi, f := range p.Funcs {
			if len(f.Blocks) == 0 {
				continue
			}
			obsIn[fi], _ = observedReads(ixs[fi], sums)
			if s := obsIn[fi][0]; !s.Equal(sums[f.Name]) {
				sums[f.Name] = s
				changed = true
			}
		}
	}
	return sums, obsIn
}
