package analysis

import (
	"specguard/internal/isa"
	"specguard/internal/prog"
)

// bitset is a dense bit vector over definition-site (or copy-fact)
// indices.
type bitset []uint64

func newBitset(n int) bitset { return make(bitset, (n+63)/64) }

func (bs bitset) set(i int)      { bs[i/64] |= 1 << (uint(i) % 64) }
func (bs bitset) has(i int) bool { return bs[i/64]&(1<<(uint(i)%64)) != 0 }

// reset returns bs resized to n bits (allocating only when bs is nil)
// with every bit set to full.
func (bs bitset) reset(n int, full bool) bitset {
	if bs == nil {
		bs = newBitset(n)
	}
	var w uint64
	if full {
		w = ^uint64(0)
	}
	for i := range bs {
		bs[i] = w
	}
	return bs
}

// copyFrom overwrites bs with o and returns it.
func (bs bitset) copyFrom(o bitset) bitset {
	copy(bs, o)
	return bs
}

func (bs bitset) unset(i int) { bs[i/64] &^= 1 << (uint(i) % 64) }

// or sets bs to bs ∪ o and returns it.
func (bs bitset) or(o bitset) bitset {
	for i := range bs {
		bs[i] |= o[i]
	}
	return bs
}

// and sets bs to bs ∩ o and returns it.
func (bs bitset) and(o bitset) bitset {
	for i := range bs {
		bs[i] &= o[i]
	}
	return bs
}

func (bs bitset) clear() {
	for i := range bs {
		bs[i] = 0
	}
}

func (bs bitset) equal(o bitset) bool {
	for i := range bs {
		if bs[i] != o[i] {
			return false
		}
	}
	return true
}

// numRegCodes bounds isa.Reg encodings: r0 encodes as 1 and p7 as 72
// (0 is NoReg).
const numRegCodes = 1 + isa.NumIntRegs + isa.NumFPRegs + isa.NumPredRegs

// regLists groups fact indices by register: the facts mentioning
// register r are list[at[r]:at[r+1]], in ascending order.
type regLists struct {
	at   [numRegCodes + 1]int32
	list []int32
}

// newRegLists counting-sorts facts 0..n-1 by the registers regsOf
// appends for each (a register listed twice for one fact counts once).
func newRegLists(n int, regsOf func(i int, dst []isa.Reg) []isa.Reg) *regLists {
	rl := &regLists{}
	var buf [2]isa.Reg
	for i := range n {
		for _, r := range dedup(regsOf(i, buf[:0])) {
			rl.at[r+1]++
		}
	}
	for r := 1; r <= numRegCodes; r++ {
		rl.at[r] += rl.at[r-1]
	}
	rl.list = make([]int32, rl.at[numRegCodes])
	fill := rl.at
	for i := range n {
		for _, r := range dedup(regsOf(i, buf[:0])) {
			rl.list[fill[r]] = int32(i)
			fill[r]++
		}
	}
	return rl
}

// dedup drops a repeated second register.
func dedup(rs []isa.Reg) []isa.Reg {
	if len(rs) == 2 && rs[0] == rs[1] {
		return rs[:1]
	}
	return rs
}

func (rl *regLists) of(r isa.Reg) []int32 { return rl.list[rl.at[r]:rl.at[r+1]] }

// DefSite is one static definition of a register.
type DefSite struct {
	Block *prog.Block
	Index int
	Instr *isa.Instr
	Reg   isa.Reg

	blk int // Block's number
}

// ReachDefs holds the reaching-definitions solution for one function
// and resolves def-use chains from it. Guarded defs generate but do not
// kill (the guard may be false); a Call kills every site — what the
// callee writes is unknown, so no definition is credited across it.
type ReachDefs struct {
	ix *cfgIndex
	// sites in layout order; block i's are sites[siteAt[i]:siteAt[i+1]].
	sites  []DefSite
	siteAt []int32
	byReg  *regLists
	in     []bitset
}

// newReachDefs solves reaching definitions over ix's function.
func newReachDefs(ix *cfgIndex) *ReachDefs {
	f := ix.f
	rd := &ReachDefs{ix: ix, siteAt: make([]int32, len(f.Blocks)+1)}
	var buf [1]isa.Reg
	for bi, b := range f.Blocks {
		for i, in := range b.Instrs {
			for _, r := range in.AppendDefs(buf[:0]) {
				if r.Valid() {
					rd.sites = append(rd.sites, DefSite{Block: b, Index: i, Instr: in, Reg: r, blk: bi})
				}
			}
		}
		rd.siteAt[bi+1] = int32(len(rd.sites))
	}
	rd.byReg = newRegLists(len(rd.sites), func(i int, dst []isa.Reg) []isa.Reg {
		return append(dst, rd.sites[i].Reg)
	})

	n := len(rd.sites)
	rd.in, _ = solve(ix, flow[bitset]{
		forward:  true,
		boundary: func(_ int, x bitset) bitset { return x.reset(n, false) },
		top:      func(x bitset) bitset { return x.reset(n, false) },
		meet:     bitset.or,
		equal:    bitset.equal,
		transfer: func(i int, x, y bitset) bitset { return rd.step(i, len(f.Blocks[i].Instrs), x.copyFrom(y)) },
	})
	return rd
}

// step advances the reaching set through the first n instructions of
// block bi, mutating x.
func (rd *ReachDefs) step(bi, n int, x bitset) bitset {
	b := rd.ix.f.Blocks[bi]
	si, end := int(rd.siteAt[bi]), int(rd.siteAt[bi+1])
	for i, in := range b.Instrs[:n] {
		if in.Op == isa.Call {
			x.clear()
			continue
		}
		if si == end || rd.sites[si].Index != i {
			continue
		}
		if !in.Guarded() {
			for _, k := range rd.byReg.of(rd.sites[si].Reg) {
				x.unset(int(k))
			}
		}
		x.set(si)
		si++
	}
	return x
}

// reaching appends to dst the sites of r that reach instruction idx of
// block bi (idx == len of its instructions means the block's out
// state), in site order. It reads the block's solved in-fact and
// scans the block itself, so a query allocates nothing beyond dst.
func (rd *ReachDefs) reaching(dst []int32, bi, idx int, r isa.Reg) []int32 {
	if !r.Valid() {
		return dst
	}
	// The last kill of r before idx: a Call, or an unguarded def of r.
	// Sites of r the block defines from it on reach idx; so does every
	// site in the in-fact when nothing in the block kills r first.
	b := rd.ix.f.Blocks[bi]
	from, sinceEntry := 0, true
	for j := idx - 1; j >= 0; j-- {
		in := b.Instrs[j]
		if in.Op == isa.Call {
			from, sinceEntry = j+1, false
			break
		}
		if !in.Guarded() && definesReg(in, r) {
			from, sinceEntry = j, false
			break
		}
	}
	for _, k := range rd.byReg.of(r) {
		s := &rd.sites[k]
		local := s.blk == bi && s.Index >= from && s.Index < idx
		if local || sinceEntry && rd.in[bi].has(int(k)) {
			dst = append(dst, k)
		}
	}
	return dst
}

// uniqueDef returns the single definition of r reaching instruction idx
// of block bi, or nil if there are zero or several. The site belongs to
// the solution: callers must not modify it.
func (rd *ReachDefs) uniqueDef(bi, idx int, r isa.Reg) *DefSite {
	var buf [4]int32
	sites := rd.reaching(buf[:0], bi, idx, r)
	if len(sites) != 1 {
		return nil
	}
	return &rd.sites[sites[0]]
}

// copyPair is one (dst ← src) register copy fact.
type copyPair struct {
	dst, src isa.Reg
}

// CopyFacts holds the available-copies solution: a copy (d ← s) is
// available at a point when an unguarded mov/fmov d, s has executed on
// every path to it and neither d nor s has been redefined since. Any
// def — guarded or not — of either side kills the fact, and a Call
// kills everything.
type CopyFacts struct {
	ix    *cfgIndex
	pairs []copyPair
	index map[copyPair]int
	// touching lists the pairs mentioning each register.
	touching *regLists
	in       []bitset
}

// newCopyFacts solves available copies over ix's function.
func newCopyFacts(ix *cfgIndex) *CopyFacts {
	f := ix.f
	cf := &CopyFacts{ix: ix, index: make(map[copyPair]int)}
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
	cf.touching = newRegLists(len(cf.pairs), func(i int, dst []isa.Reg) []isa.Reg {
		return append(dst, cf.pairs[i].dst, cf.pairs[i].src)
	})

	n := len(cf.pairs)
	cf.in, _ = solve(ix, flow[bitset]{
		forward: true,
		boundary: func(i int, x bitset) bitset {
			// The entry starts with no copies; an unreachable no-pred
			// block takes the optimistic top (the rules skip
			// unreachable blocks anyway).
			return x.reset(n, i != 0)
		},
		top:      func(x bitset) bitset { return x.reset(n, true) },
		meet:     bitset.and,
		equal:    bitset.equal,
		transfer: func(i int, x, y bitset) bitset { return cf.step(i, len(f.Blocks[i].Instrs), x.copyFrom(y)) },
	})
	return cf
}

// copyOf reports whether in is an unguarded register copy.
func copyOf(in *isa.Instr) (copyPair, bool) {
	if (in.Op != isa.Mov && in.Op != isa.FMov) || in.Guarded() {
		return copyPair{}, false
	}
	if !in.Rd.Valid() || !in.Rs.Valid() {
		return copyPair{}, false
	}
	return copyPair{dst: in.Rd, src: in.Rs}, true
}

// step advances the available set through the first n instructions of
// block bi, mutating x.
func (cf *CopyFacts) step(bi, n int, x bitset) bitset {
	var buf [1]isa.Reg
	for _, in := range cf.ix.f.Blocks[bi].Instrs[:n] {
		if in.Op == isa.Call {
			x.clear()
			continue
		}
		for _, r := range in.AppendDefs(buf[:0]) {
			if r.Valid() {
				for _, k := range cf.touching.of(r) {
					x.unset(int(k))
				}
			}
		}
		if p, ok := copyOf(in); ok {
			x.set(cf.index[p])
		}
	}
	return x
}

// availableAt reports whether the copy (dst ← src) is available just
// before instruction idx of block bi. It scans the block backward from
// idx for the last instruction that makes or kills the copy, falling
// back on the block's solved in-fact, so a query allocates nothing.
func (cf *CopyFacts) availableAt(bi, idx int, dst, src isa.Reg) bool {
	p := copyPair{dst: dst, src: src}
	k, ok := cf.index[p]
	if !ok {
		return false
	}
	instrs := cf.ix.f.Blocks[bi].Instrs
	for j := idx - 1; j >= 0; j-- {
		in := instrs[j]
		if in.Op == isa.Call {
			return false
		}
		if q, ok := copyOf(in); ok && q == p {
			return true
		}
		if definesReg(in, dst) || definesReg(in, src) {
			return false
		}
	}
	return cf.in[bi].has(k)
}
