package analysis

import (
	"encoding/json"
	"fmt"
	"maps"
	"reflect"
	"slices"
	"testing"

	"specguard/internal/asm"
	"specguard/internal/dep"
	"specguard/internal/isa"
	"specguard/internal/prog"
)

// TestMustDefinedDiamond pins the all-paths meet: a register defined on
// only one arm of a diamond is not must-defined at the join, one
// defined on both arms is.
func TestMustDefinedDiamond(t *testing.T) {
	p := asm.MustParse(`
func main:
entry:
    li r1, 1
    beq r1, 0, right
left:
    li r2, 2
    li r3, 3
    j join
right:
    li r3, 4
join:
    halt
`)
	f := p.EntryFunc()
	in, _ := mustDefined(newCFGIndex(f), true)
	join := in[f.Index(f.Block("join"))]
	if join.Has(isa.R(2)) {
		t.Error("r2 defined on one arm only: must not be must-defined at join")
	}
	if !join.Has(isa.R(3)) {
		t.Error("r3 defined on both arms: must be must-defined at join")
	}
	if !join.Has(isa.R(1)) || !join.Has(isa.R(0)) || !join.Has(isa.P(0)) {
		t.Error("dominating def and hardwired registers must be must-defined")
	}
}

// TestMustDefinedGuardedAndCall pins the two transfer special cases:
// guarded defs do not establish definedness, a call establishes it for
// everything (the callee's writes are unknown).
func TestMustDefinedGuardedAndCall(t *testing.T) {
	p := asm.MustParse(`
func main:
entry:
    li r1, 1
    peq p1, r1, 1
    (p1) li r2, 2
    call helper
after:
    halt
func helper:
h0:
    ret
`)
	f := p.EntryFunc()
	in, out := mustDefined(newCFGIndex(f), true)
	entry := f.Entry()
	if !out[0].Has(isa.R(2)) {
		t.Error("after the call everything is considered defined")
	}
	// Before the call (walk the transfer to just past the guarded li):
	x := mustDefTransfer(entry.Instrs, 3, in[0])
	if x.Has(isa.R(2)) {
		t.Error("a guarded def must not establish must-definedness")
	}
}

// TestObservedReadsBoundaries pins the refinements over dep.Liveness
// that the speculation rule depends on: Halt and Ret observe nothing,
// while dep.Liveness treats those blocks as all-live barriers.
func TestObservedReadsBoundaries(t *testing.T) {
	p := asm.MustParse(`
func main:
entry:
    li r1, 1
    add r2, r1, 1
    halt
`)
	f := p.EntryFunc()
	in, _ := observedReads(newCFGIndex(f), nil)
	entry := f.Entry()
	if got := in[0]; !got.Empty() {
		t.Errorf("a block defining everything it reads before halt observes nothing, got %v", got)
	}
	if live := dep.Liveness(f); live.Out[entry].Empty() {
		t.Error("sanity: dep.Liveness treats the halt block as a barrier (all live out)")
	}
}

// TestObservedReadsGuardedDefs pins no-kill-through-guards: a guarded
// def leaves the old value observable.
func TestObservedReadsGuardedDefs(t *testing.T) {
	p := asm.MustParse(`
func main:
entry:
    peq p1, r1, 1
    (p1) li r2, 7
    sw r2, 0(r1)
    halt
`)
	f := p.EntryFunc()
	in, _ := observedReads(newCFGIndex(f), nil)
	if !in[0].Has(isa.R(2)) {
		t.Error("guarded def of r2 must not kill the exposed read of the incoming r2")
	}
}

// TestSummarizeInterprocedural pins the call-graph fixpoint: a callee's
// exposed reads surface at the caller's call site, transitively.
func TestSummarizeInterprocedural(t *testing.T) {
	p := asm.MustParse(`
func main:
entry:
    li r1, 1
    call outer
done:
    halt
func outer:
o0:
    li r5, 5
    call inner
o1:
    ret
func inner:
i0:
    add r6, r7, 1
    ret
`)
	sums, obsIn := summarize(p, indexAll(p))
	if !sums["inner"].Has(isa.R(7)) {
		t.Errorf("inner reads r7 before writing: summary = %v", sums["inner"])
	}
	if !sums["outer"].Has(isa.R(7)) {
		t.Errorf("outer must inherit inner's exposed read of r7: %v", sums["outer"])
	}
	if sums["outer"].Has(isa.R(6)) {
		t.Errorf("r6 is written by inner before any read: %v", sums["outer"])
	}
	// The caller's observed set at the call site includes the summary,
	// and summarize's own final solution already carries it.
	f := p.EntryFunc()
	in, _ := observedReads(newCFGIndex(f), sums)
	if !in[0].Has(isa.R(7)) || !obsIn[0][0].Has(isa.R(7)) {
		t.Error("main's entry must observe r7 through the call chain")
	}
}

// TestObservedSubsetOfLiveness pins the refinement direction: observed
// reads never exceed dep.Liveness (the conservative superset used for
// code motion) on any block.
func TestObservedSubsetOfLiveness(t *testing.T) {
	p := asm.MustParse(`
func main:
entry:
    li r1, 1
    li r8, 64
    beq r1, 5, odd
even:
    lw r2, 0(r8)
    add r3, r2, 1
    j tail
odd:
    sub r3, r1, 1
tail:
    sw r3, 8(r8)
    call helper
post:
    halt
func helper:
h0:
    add r5, r3, 1
    ret
`)
	sums, _ := summarize(p, indexAll(p))
	for _, f := range p.Funcs {
		obsIn, obsOut := observedReads(newCFGIndex(f), sums)
		live := dep.Liveness(f)
		for i, b := range f.Blocks {
			if !obsIn[i].Minus(live.In[b]).Empty() {
				t.Errorf("%s.%s: observed-in %v exceeds live-in %v", f.Name, b.Name, obsIn[i], live.In[b])
			}
			if !obsOut[i].Minus(live.Out[b]).Empty() {
				t.Errorf("%s.%s: observed-out %v exceeds live-out %v", f.Name, b.Name, obsOut[i], live.Out[b])
			}
		}
	}
}

// TestReachDefsResolution pins def-use chain resolution: unique defs
// resolve across blocks, merges and guarded defs do not resolve to a
// single site, and calls sever chains.
func TestReachDefsResolution(t *testing.T) {
	p := asm.MustParse(`
func main:
entry:
    li r1, 1
    li r2, 10
    beq r1, 0, right
left:
    li r2, 20
    j join
right:
    add r4, r2, 1
join:
    add r3, r2, 1
    peq p1, r2, 5
    (p1) li r5, 1
    add r6, r5, 1
    call helper
post:
    add r7, r2, 1
    halt
func helper:
h0:
    ret
`)
	f := p.EntryFunc()
	rd := newReachDefs(newCFGIndex(f))

	join := f.Index(f.Block("join"))
	// r2 at join[0]: two reaching defs (entry and left).
	if got := len(rd.reaching(nil, join, 0, isa.R(2))); got != 2 {
		t.Errorf("r2 at join: want 2 reaching defs, got %d", got)
	}
	if rd.uniqueDef(join, 0, isa.R(2)) != nil {
		t.Error("merged r2 must not resolve to a unique def")
	}
	// r2 in right: only the entry def reaches.
	right := f.Index(f.Block("right"))
	if ud := rd.uniqueDef(right, 0, isa.R(2)); ud == nil || ud.Instr.Op != isa.Li || ud.Instr.Imm != 10 {
		t.Errorf("r2 in right must uniquely resolve to the entry li: %+v", ud)
	}
	// r5 after a guarded def: the guarded li generates but the site is
	// still ambiguous with "whatever reached before" — there is no
	// other def site of r5, so the guarded site is the only one, but
	// definedness is a mustDefined question, not a reaching one.
	if got := len(rd.reaching(nil, join, 3, isa.R(5))); got != 1 {
		t.Errorf("guarded def still generates a site: got %d", got)
	}
	// After the call, nothing reaches.
	post := f.Index(f.Block("post"))
	if got := rd.reaching(nil, post, 0, isa.R(2)); got != nil {
		t.Errorf("a call severs def-use chains, got %v", got)
	}
}

// TestCopyFactsAvailability pins the intersection semantics: a copy is
// available only when made on every incoming path and not clobbered.
func TestCopyFactsAvailability(t *testing.T) {
	p := asm.MustParse(`
func main:
entry:
    li r1, 1
    beq r1, 0, right
left:
    mov r2, r1
    j join
right:
    mov r2, r1
join:
    mov r2, r1
clobber:
    li r1, 5
    mov r2, r1
    halt
`)
	f := p.EntryFunc()
	cf := newCopyFacts(newCFGIndex(f))
	join := f.Index(f.Block("join"))
	if !cf.availableAt(join, 0, isa.R(2), isa.R(1)) {
		t.Error("copy made on both arms must be available at the join")
	}
	clobber := f.Index(f.Block("clobber"))
	if !cf.availableAt(clobber, 0, isa.R(2), isa.R(1)) {
		t.Error("copy still available before the clobbering li")
	}
	if cf.availableAt(clobber, 1, isa.R(2), isa.R(1)) {
		t.Error("redefining the source must kill the copy fact")
	}
}

// The reference solver: a worklist over facts keyed by block pointer,
// every meet and transfer returning a fresh value, with the transfer
// functions and queries of the audit's problems written over it.
// CheckAgainstReference holds the block-indexed solutions to it.

// refFlow is the reference's problem description: facts keyed by block
// pointer, every meet and transfer returning a fresh value.
type refFlow[T any] struct {
	forward  bool
	boundary func(b *prog.Block) T
	top      func() T
	meet     func(a, b T) T
	equal    func(a, b T) bool
	transfer func(b *prog.Block, x T) T
}

// refSolve runs the worklist to a fixpoint over per-block maps, with a
// slice queue and a map of queued blocks.
func refSolve[T any](f *prog.Func, fl refFlow[T]) (in, out map[*prog.Block]T) {
	in = make(map[*prog.Block]T, len(f.Blocks))
	out = make(map[*prog.Block]T, len(f.Blocks))
	for _, b := range f.Blocks {
		in[b] = fl.top()
		out[b] = fl.top()
	}
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
			if nout := fl.transfer(b, x); !fl.equal(nout, out[b]) {
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
			if nin := fl.transfer(b, x); !fl.equal(nin, in[b]) {
				in[b] = nin
				for _, p := range b.Preds {
					push(p)
				}
			}
		}
	}
	return in, out
}

func refMustDefined(f *prog.Func, entryZeroed bool) (in, out map[*prog.Block]dep.RegSet) {
	entry := f.Entry()
	return refSolve(f, refFlow[dep.RegSet]{
		forward: true,
		boundary: func(b *prog.Block) dep.RegSet {
			if b == entry && entryZeroed {
				return hardwired
			}
			return allRegs
		},
		top:   func() dep.RegSet { return allRegs },
		meet:  intersect,
		equal: dep.RegSet.Equal,
		transfer: func(b *prog.Block, x dep.RegSet) dep.RegSet {
			return mustDefTransfer(b.Instrs, len(b.Instrs), x)
		},
	})
}

func refObservedReads(f *prog.Func, sums map[string]dep.RegSet) (in, out map[*prog.Block]dep.RegSet) {
	return refSolve(f, refFlow[dep.RegSet]{
		boundary: func(*prog.Block) dep.RegSet { return dep.RegSet{} },
		top:      func() dep.RegSet { return dep.RegSet{} },
		meet:     dep.RegSet.Union,
		equal:    dep.RegSet.Equal,
		transfer: func(b *prog.Block, x dep.RegSet) dep.RegSet {
			return obsTransfer(b.Instrs, 0, x, sums)
		},
	})
}

// refSummarize re-solves every function until no summary changes.
func refSummarize(p *prog.Program) map[string]dep.RegSet {
	sums := make(map[string]dep.RegSet, len(p.Funcs))
	for changed := true; changed; {
		changed = false
		for _, f := range p.Funcs {
			if len(f.Blocks) == 0 {
				continue
			}
			in, _ := refObservedReads(f, sums)
			if s := in[f.Entry()]; !s.Equal(sums[f.Name]) {
				sums[f.Name] = s
				changed = true
			}
		}
	}
	return sums
}

func refClone(bs bitset) bitset { return append(bitset(nil), bs...) }

func refAndNot(bs, o bitset) {
	for i := range bs {
		bs[i] &^= o[i]
	}
}

// refReachDefs is reaching definitions with a kill mask per register
// and a site map per block; a query steps a clone of the block's
// in-fact up to the instruction.
type refReachDefs struct {
	sites  []DefSite
	byReg  map[isa.Reg]bitset
	siteOf map[*prog.Block][]int
	in     map[*prog.Block]bitset
}

func newRefReachDefs(f *prog.Func) *refReachDefs {
	rd := &refReachDefs{byReg: make(map[isa.Reg]bitset), siteOf: make(map[*prog.Block][]int)}
	for _, b := range f.Blocks {
		idx := make([]int, len(b.Instrs))
		for i, in := range b.Instrs {
			idx[i] = -1
			for _, r := range in.Defs() {
				if r.Valid() {
					idx[i] = len(rd.sites)
					rd.sites = append(rd.sites, DefSite{Block: b, Index: i, Instr: in, Reg: r})
				}
			}
		}
		rd.siteOf[b] = idx
	}
	n := len(rd.sites)
	for i, s := range rd.sites {
		if rd.byReg[s.Reg] == nil {
			rd.byReg[s.Reg] = newBitset(n)
		}
		rd.byReg[s.Reg].set(i)
	}
	rd.in, _ = refSolve(f, refFlow[bitset]{
		forward:  true,
		boundary: func(*prog.Block) bitset { return newBitset(n) },
		top:      func() bitset { return newBitset(n) },
		meet:     func(a, b bitset) bitset { return refClone(a).or(b) },
		equal:    bitset.equal,
		transfer: func(b *prog.Block, x bitset) bitset { return rd.step(b, len(b.Instrs), refClone(x)) },
	})
	return rd
}

func (rd *refReachDefs) step(b *prog.Block, n int, x bitset) bitset {
	idx := rd.siteOf[b]
	for i := 0; i < n; i++ {
		in := b.Instrs[i]
		if in.Op == isa.Call {
			x.clear()
			continue
		}
		si := idx[i]
		if si < 0 {
			continue
		}
		if !in.Guarded() {
			refAndNot(x, rd.byReg[rd.sites[si].Reg])
		}
		x.set(si)
	}
	return x
}

func (rd *refReachDefs) reachingAt(b *prog.Block, idx int, r isa.Reg) []DefSite {
	cur := rd.step(b, idx, refClone(rd.in[b]))
	mask := rd.byReg[r]
	if mask == nil {
		return nil
	}
	var out []DefSite
	for i, s := range rd.sites {
		if mask.has(i) && cur.has(i) {
			out = append(out, s)
		}
	}
	return out
}

// refCopyFacts is available copies with a kill mask per register.
type refCopyFacts struct {
	pairs    []copyPair
	index    map[copyPair]int
	touching map[isa.Reg]bitset
	in       map[*prog.Block]bitset
}

func newRefCopyFacts(f *prog.Func) *refCopyFacts {
	cf := &refCopyFacts{index: make(map[copyPair]int), touching: make(map[isa.Reg]bitset)}
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			if p, ok := copyOf(in); ok {
				if _, dup := cf.index[p]; !dup {
					cf.index[p] = len(cf.pairs)
					cf.pairs = append(cf.pairs, p)
				}
			}
		}
	}
	n := len(cf.pairs)
	for i, p := range cf.pairs {
		for _, r := range []isa.Reg{p.dst, p.src} {
			if cf.touching[r] == nil {
				cf.touching[r] = newBitset(n)
			}
			cf.touching[r].set(i)
		}
	}
	universe := newBitset(n).reset(n, true)
	entry := f.Entry()
	cf.in, _ = refSolve(f, refFlow[bitset]{
		forward: true,
		boundary: func(b *prog.Block) bitset {
			if b == entry {
				return newBitset(n)
			}
			return refClone(universe)
		},
		top:      func() bitset { return refClone(universe) },
		meet:     func(a, b bitset) bitset { return refClone(a).and(b) },
		equal:    bitset.equal,
		transfer: func(b *prog.Block, x bitset) bitset { return cf.step(b, len(b.Instrs), refClone(x)) },
	})
	return cf
}

func (cf *refCopyFacts) step(b *prog.Block, n int, x bitset) bitset {
	for _, in := range b.Instrs[:n] {
		if in.Op == isa.Call {
			x.clear()
			continue
		}
		for _, r := range in.Defs() {
			if t := cf.touching[r]; t != nil {
				refAndNot(x, t)
			}
		}
		if p, ok := copyOf(in); ok {
			x.set(cf.index[p])
		}
	}
	return x
}

func (cf *refCopyFacts) availableAt(b *prog.Block, idx int, dst, src isa.Reg) bool {
	i, ok := cf.index[copyPair{dst: dst, src: src}]
	if !ok {
		return false
	}
	return cf.step(b, idx, refClone(cf.in[b])).has(i)
}

// refTaint is the taint fixpoint over per-block maps, attributing
// addresses through refReachDefs. It starts from a fresh taintPass's
// zones and regions and keeps its own summaries.
type refTaint struct {
	tp    *taintPass
	zones uint64
	entry map[string]dep.RegSet
	exit  map[string]dep.RegSet
	rds   map[string]*refReachDefs
	in    map[*prog.Block]dep.RegSet
}

func newRefTaint(tp *taintPass) *refTaint {
	rt := &refTaint{
		tp:    tp,
		zones: tp.zones,
		entry: make(map[string]dep.RegSet),
		exit:  make(map[string]dep.RegSet),
		rds:   make(map[string]*refReachDefs),
		in:    make(map[*prog.Block]dep.RegSet),
	}
	for _, f := range tp.p.Funcs {
		if len(f.Blocks) > 0 {
			rt.rds[f.Name] = newRefReachDefs(f)
		}
	}
	for changed := true; changed; {
		changed = false
		for _, f := range tp.p.Funcs {
			if len(f.Blocks) == 0 {
				continue
			}
			in, out := rt.solveFunc(f)
			for b, x := range in {
				if !x.Equal(rt.in[b]) {
					rt.in[b] = x
					changed = true
				}
			}
			ex := rt.exit[f.Name]
			for _, b := range f.Blocks {
				if t := b.Terminator(); t != nil && t.Op == isa.Ret {
					ex = ex.Union(out[b])
				}
			}
			if !ex.Equal(rt.exit[f.Name]) {
				rt.exit[f.Name] = ex
				changed = true
			}
		}
		if rt.sweep() {
			changed = true
		}
	}
	return rt
}

func (rt *refTaint) solveFunc(f *prog.Func) (in, out map[*prog.Block]dep.RegSet) {
	entry := f.Entry()
	return refSolve(f, refFlow[dep.RegSet]{
		forward: true,
		boundary: func(b *prog.Block) dep.RegSet {
			if b == entry {
				return rt.entry[f.Name]
			}
			return dep.RegSet{}
		},
		top:   func() dep.RegSet { return dep.RegSet{} },
		meet:  dep.RegSet.Union,
		equal: dep.RegSet.Equal,
		transfer: func(b *prog.Block, x dep.RegSet) dep.RegSet {
			for i, in := range b.Instrs {
				x = rt.step(f, b, i, in, x)
			}
			return x
		},
	})
}

func (rt *refTaint) step(f *prog.Func, b *prog.Block, i int, in *isa.Instr, x dep.RegSet) dep.RegSet {
	switch {
	case in.Op == isa.Call:
		return x.Union(rt.exit[in.Label])
	case in.Op.IsLoad():
		t := x.Intersects(dep.UsesOf(in)) || rt.zones&rt.attr(f, b, i, in) != 0
		if !in.Guarded() {
			x = x.Minus(dep.DefsOf(in))
		}
		if t {
			x.Add(in.Rd)
		}
		return x
	case in.Op.IsStore():
		return x
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

func (rt *refTaint) sweep() bool {
	grew := false
	for _, f := range rt.tp.p.Funcs {
		for _, b := range f.Blocks {
			x := rt.in[b]
			for i, in := range b.Instrs {
				switch {
				case in.Op == isa.Call:
					if e := rt.entry[in.Label].Union(x); !e.Equal(rt.entry[in.Label]) {
						rt.entry[in.Label] = e
						grew = true
					}
				case in.Op.IsStore():
					if x.Intersects(dep.UsesOf(in)) {
						if m := rt.attr(f, b, i, in); rt.zones|m != rt.zones {
							rt.zones |= m
							grew = true
						}
					}
				}
				x = rt.step(f, b, i, in, x)
			}
		}
	}
	return grew
}

func (rt *refTaint) attr(f *prog.Func, b *prog.Block, i int, in *isa.Instr) uint64 {
	defs := rt.rds[f.Name].reachingAt(b, i, in.Rs)
	if len(defs) == 0 {
		if in.Rs.IsZero() {
			return rt.tp.zoneOf(in.Imm)
		}
		return rt.tp.allMask
	}
	var m uint64
	for _, d := range defs {
		if d.Instr.Op != isa.Li || d.Instr.Guarded() {
			return rt.tp.allMask
		}
		m |= rt.tp.zoneOf(d.Instr.Imm + in.Imm)
	}
	return m
}

// refFunc holds the reference solutions for one function.
type refFunc struct {
	mustIn, mustOut map[*prog.Block]dep.RegSet
	obsIn, obsOut   map[*prog.Block]dep.RegSet
	rd              *refReachDefs
	cf              *refCopyFacts
}

// byBlock lays a per-block map out by block number.
func byBlock[T any](f *prog.Func, m map[*prog.Block]T) []T {
	s := make([]T, len(f.Blocks))
	for i, b := range f.Blocks {
		s[i] = m[b]
	}
	return s
}

// CheckAgainstReference solves every dataflow problem of p's audit —
// must-defined, observed reads (and the call summaries), reaching
// definitions, available copies and taint — with both the block-indexed
// solver and the reference, and returns the first disagreement: a fact
// of any block, a reaching-definition or available-copy query at any
// instruction, or the whole Analyze Result under opts, which the
// reference yields by running the rules over its own facts.
func CheckAgainstReference(p *prog.Program, opts Options) error {
	ixs := indexAll(p)
	sums, obsIn := summarize(p, ixs)
	refSums := refSummarize(p)
	if !maps.Equal(sums, refSums) {
		return fmt.Errorf("call summaries %v, reference %v", sums, refSums)
	}
	called := calledFuncs(p)
	refs := make([]*refFunc, len(p.Funcs))
	rds := make([]*ReachDefs, len(p.Funcs))
	for fi, f := range p.Funcs {
		if len(f.Blocks) == 0 {
			continue
		}
		ix := ixs[fi]
		entryFn := f.Name == p.Entry && !called[f.Name]
		r := &refFunc{rd: newRefReachDefs(f), cf: newRefCopyFacts(f)}
		r.mustIn, r.mustOut = refMustDefined(f, entryFn)
		r.obsIn, r.obsOut = refObservedReads(f, refSums)
		refs[fi] = r

		mustIn, mustOut := mustDefined(ix, entryFn)
		oIn, oOut := observedReads(ix, sums)
		for _, c := range []struct {
			name      string
			got, want []dep.RegSet
		}{
			{"must-defined in", mustIn, byBlock(f, r.mustIn)},
			{"must-defined out", mustOut, byBlock(f, r.mustOut)},
			{"observed-reads in", oIn, byBlock(f, r.obsIn)},
			{"observed-reads out", oOut, byBlock(f, r.obsOut)},
			{"summarize's observed-reads in", obsIn[fi], byBlock(f, r.obsIn)},
		} {
			for i, b := range f.Blocks {
				if c.got[i] != c.want[i] {
					return fmt.Errorf("%s.%s: %s %v, reference %v", f.Name, b.Name, c.name, c.got[i], c.want[i])
				}
			}
		}

		rd, cf := newReachDefs(ix), newCopyFacts(ix)
		rds[fi] = rd
		if err := compareReachDefs(f, rd, r.rd); err != nil {
			return err
		}
		if err := compareCopyFacts(f, cf, r.cf); err != nil {
			return err
		}
	}

	if tp := newTaintPass(p, opts, &Result{}, ixs, rds); tp != nil {
		tp.solveFixpoint()
		rt := newRefTaint(newTaintPass(p, opts, &Result{}, ixs, rds))
		if tp.zones != rt.zones || !maps.Equal(tp.entry, rt.entry) || !maps.Equal(tp.exit, rt.exit) {
			return fmt.Errorf("taint summaries: zones %b entry %v exit %v, reference %b %v %v",
				tp.zones, tp.entry, tp.exit, rt.zones, rt.entry, rt.exit)
		}
		for fi, f := range p.Funcs {
			for bi, b := range f.Blocks {
				if got, want := tp.in[fi][bi], rt.in[b]; got != want {
					return fmt.Errorf("%s.%s: taint in %v, reference %v", f.Name, b.Name, got, want)
				}
			}
		}
	}

	got, want := Analyze(p, opts), refAnalyze(p, opts, ixs, called, refs)
	if !reflect.DeepEqual(got, want) {
		g, _ := json.Marshal(got)
		w, _ := json.Marshal(want)
		return fmt.Errorf("Analyze result\n%s\nreference\n%s", g, w)
	}
	return nil
}

// compareReachDefs checks the sites, every block's in-fact, and the
// sites of every register f mentions reaching every instruction (and
// each block's end), all of them and the unique one alike.
func compareReachDefs(f *prog.Func, rd *ReachDefs, ref *refReachDefs) error {
	if len(rd.sites) != len(ref.sites) {
		return fmt.Errorf("%s: %d definition sites, reference %d", f.Name, len(rd.sites), len(ref.sites))
	}
	for k, s := range ref.sites {
		if g := rd.sites[k]; g.Block != s.Block || g.Index != s.Index || g.Instr != s.Instr || g.Reg != s.Reg {
			return fmt.Errorf("%s: site %d is %s.%d %s, reference %s.%d %s", f.Name, k, g.Block.Name, g.Index, g.Reg, s.Block.Name, s.Index, s.Reg)
		}
	}
	regs := append(mentionedRegs(f).Regs(), isa.NoReg)
	for bi, b := range f.Blocks {
		if !rd.in[bi].equal(ref.in[b]) {
			return fmt.Errorf("%s.%s: reaching-definitions in %x, reference %x", f.Name, b.Name, rd.in[bi], ref.in[b])
		}
		for idx := 0; idx <= len(b.Instrs); idx++ {
			for _, r := range regs {
				got, want := rd.reaching(nil, bi, idx, r), ref.reachingAt(b, idx, r)
				same := len(got) == len(want)
				for k := 0; same && k < len(got); k++ {
					same = rd.sites[got[k]].Instr == want[k].Instr
				}
				if !same {
					return fmt.Errorf("%s.%s[%d]: %s reached by %d sites, reference %d", f.Name, b.Name, idx, r, len(got), len(want))
				}
				if u := rd.uniqueDef(bi, idx, r); (u != nil) != (len(want) == 1) || u != nil && u.Instr != want[0].Instr {
					return fmt.Errorf("%s.%s[%d]: UniqueDef(%s) disagrees with %d reference sites", f.Name, b.Name, idx, r, len(want))
				}
			}
		}
	}
	return nil
}

// compareCopyFacts checks the pairs, every block's in-fact and the
// availability of every pair (and one pair no copy makes) before every
// instruction and at each block's end.
func compareCopyFacts(f *prog.Func, cf *CopyFacts, ref *refCopyFacts) error {
	if !slices.Equal(cf.pairs, ref.pairs) {
		return fmt.Errorf("%s: copy pairs %v, reference %v", f.Name, cf.pairs, ref.pairs)
	}
	pairs := append(slices.Clone(ref.pairs), copyPair{dst: isa.R(1), src: isa.R(1)})
	for bi, b := range f.Blocks {
		if !cf.in[bi].equal(ref.in[b]) {
			return fmt.Errorf("%s.%s: available-copies in %x, reference %x", f.Name, b.Name, cf.in[bi], ref.in[b])
		}
		for idx := 0; idx <= len(b.Instrs); idx++ {
			for _, p := range pairs {
				if got, want := cf.availableAt(bi, idx, p.dst, p.src), ref.availableAt(b, idx, p.dst, p.src); got != want {
					return fmt.Errorf("%s.%s[%d]: copy %s ← %s available %v, reference %v", f.Name, b.Name, idx, p.dst, p.src, got, want)
				}
			}
		}
	}
	return nil
}

// mentionedRegs is every register f reads or writes.
func mentionedRegs(f *prog.Func) dep.RegSet {
	var s dep.RegSet
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			s = s.Union(dep.DefsOf(in)).Union(dep.UsesOf(in))
		}
	}
	return s
}

// refAnalyze is Analyze with every dataflow fact taken from the
// reference: the rules and the reaching-definition and copy queries run
// over the reference's in-facts, laid out by block number.
func refAnalyze(p *prog.Program, opts Options, ixs []*cfgIndex, called map[string]bool, refs []*refFunc) *Result {
	res := &Result{}
	rds := make([]*ReachDefs, len(p.Funcs))
	for fi, f := range p.Funcs {
		r := refs[fi]
		if r == nil {
			continue
		}
		a := newFuncAnalysis(p, fi, ixs[fi], opts, res, called)
		a.mustIn, a.obsIn = byBlock(f, r.mustIn), byBlock(f, r.obsIn)
		a.rd, a.copies = newReachDefs(ixs[fi]), newCopyFacts(ixs[fi])
		a.rd.in, a.copies.in = byBlock(f, r.rd.in), byBlock(f, r.cf.in)
		rds[fi] = a.rd
		a.check()
	}
	if tp := newTaintPass(p, opts, res, ixs, rds); tp != nil {
		rt := newRefTaint(newTaintPass(p, opts, &Result{}, ixs, rds))
		tp.zones, tp.entry, tp.exit = rt.zones, rt.entry, rt.exit
		for fi, f := range p.Funcs {
			tp.in[fi] = byBlock(f, rt.in)
		}
		tp.report()
	}
	res.sortDiags()
	return res
}
