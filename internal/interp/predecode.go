package interp

import (
	"fmt"

	"specguard/internal/isa"
	"specguard/internal/prog"
)

// FlatInstr is one predecoded instruction: the tree-walking
// interpreter's per-step work (empty-block skipping, layout map
// lookups, label searches, BranchSiteID string building) resolved once
// at predecode time into dense integer fields. The exported fields are
// the replay surface consumed by internal/trace; the unexported ones
// are the Machine's execution operands.
type FlatInstr struct {
	// Op duplicates Instr.Op for dispatch without the pointer chase.
	Op isa.Op
	// Guarded is true when the instruction carries a predicate guard.
	Guarded bool
	// IsMem is true for loads and stores.
	IsMem bool
	// Instr, Fn, Block and Index identify the source instruction; they
	// are copied verbatim into every Event so predecoded execution is
	// indistinguishable from the reference interpreter.
	Instr *isa.Instr
	Fn    *prog.Func
	Block *prog.Block
	Index int32
	// Addr is the code address from the Layout.
	Addr uint64
	// Next is the fall-through successor: the next flat instruction of
	// the same function, resolving empty blocks. Negative values encode
	// ^funcIndex and mean execution fell off the end of that function.
	Next int32
	// Target is the taken/jump/call destination (same encoding), valid
	// for conditional branches, J and Call. For Call, Next doubles as
	// the return-resume point pushed on the call stack.
	Target int32
	// Site is the interned prog.BranchSiteID for conditional branches,
	// -1 otherwise.
	Site int32
	// Targets are the resolved Switch destinations.
	Targets []int32

	// Kind collapses the replay/control dispatch into one byte (see the
	// Kind* constants), sparing the opcode-range compares per event.
	Kind uint8

	// Static operand metadata, precomputed so per-event consumers (the
	// timing simulator's shared decode window) do not re-derive operand
	// lists per dynamic execution. Uses holds the NUses registers read,
	// in AppendUses order (at most three: two operands plus the guard;
	// Predecode rejects an instruction with more). Def is the
	// destination register when HasDef. NeedsRename/FPRename classify
	// the destination's rename register: an integer or floating-point
	// one; predicate destinations are compiler-synthesized condition
	// codes and consume none.
	Uses        [3]isa.Reg
	NUses       uint8
	Def         isa.Reg
	HasDef      bool
	NeedsRename bool
	FPRename    bool

	// Execution operands, flattened from Instr.
	rd, rs, rt, pred isa.Reg
	predNeg          bool
	imm              int64
}

// Kind values for FlatInstr.Kind: how control flow treats the
// instruction at replay.
const (
	KindPlain  uint8 = iota // falls through (includes loads/stores; see IsMem)
	KindCond                // conditional branch (consumes a direction bit)
	KindJump                // unconditional absolute jump
	KindCall                // call (pushes the return point)
	KindRet                 // return (pops it)
	KindSwitch              // register-indirect multi-way (consumes a target)
	KindHalt                // terminates execution
)

// Code is a program predecoded into one flat contiguous instruction
// array across all functions in declaration order. It is immutable
// after Predecode and safely shared by any number of Machines, trace
// captures and replays.
type Code struct {
	prog   *prog.Program
	layout *Layout
	ins    []FlatInstr
	entry  int32
	sites  []string
	funcs  []*prog.Func
}

// Predecode flattens p. Like New, it verifies the program in IR mode
// first, so a Code only ever exists for a well-formed program.
func Predecode(p *prog.Program, layout *Layout) (*Code, error) {
	if err := prog.Verify(p, prog.VerifyIR); err != nil {
		return nil, err
	}
	if layout == nil {
		layout = NewLayout(p)
	}
	c := &Code{prog: p, layout: layout, funcs: p.Funcs}

	// Pass 1: assign flat indices and remember where each function and
	// block begins.
	funcIdx := make(map[*prog.Func]int32, len(p.Funcs))
	funcStart := make([]int32, len(p.Funcs))
	funcEnd := make([]int32, len(p.Funcs)) // one past the last flat instr
	type blockPos struct {
		first int32 // flat index of the block's first instruction, -1 if empty
	}
	blockStart := make([][]blockPos, len(p.Funcs))
	for fi, f := range p.Funcs {
		funcIdx[f] = int32(fi)
		funcStart[fi] = int32(len(c.ins))
		blockStart[fi] = make([]blockPos, len(f.Blocks))
		for bi, b := range f.Blocks {
			blockStart[fi][bi].first = -1
			for ii, in := range b.Instrs {
				if ii == 0 {
					blockStart[fi][bi].first = int32(len(c.ins))
				}
				c.ins = append(c.ins, FlatInstr{
					Op:      in.Op,
					Guarded: in.Guarded(),
					IsMem:   in.Op.IsMem(),
					Instr:   in,
					Fn:      f,
					Block:   b,
					Index:   int32(ii),
					Addr:    layout.Addr(in),
					Site:    -1,
					rd:      in.Rd,
					rs:      in.Rs,
					rt:      in.Rt,
					pred:    in.Pred,
					predNeg: in.PredNeg,
					imm:     in.Imm,
				})
			}
		}
		funcEnd[fi] = int32(len(c.ins))
	}

	// resolveFrom mirrors the interpreter's empty-block skip loop: the
	// first flat instruction of block bi or any later block of function
	// fi, else the ^fi fell-off-the-end sentinel.
	resolveFrom := func(fi int32, bi int) int32 {
		for ; bi < len(p.Funcs[fi].Blocks); bi++ {
			if first := blockStart[fi][bi].first; first >= 0 {
				return first
			}
		}
		return ^fi
	}
	blockIndex := func(f *prog.Func, label string) int {
		for i, b := range f.Blocks {
			if b.Name == label {
				return i
			}
		}
		panic(fmt.Sprintf("interp: jump to unknown block %q (verified program)", label))
	}

	// Pass 2: resolve successors and targets, intern branch sites.
	siteID := map[string]int32{}
	for fi, f := range p.Funcs {
		for bi, b := range f.Blocks {
			for ii := range b.Instrs {
				i := blockStart[fi][bi].first + int32(ii)
				fl := &c.ins[i]
				if i+1 < funcEnd[fi] {
					fl.Next = i + 1
				} else {
					fl.Next = ^int32(fi)
				}
				in := fl.Instr
				switch {
				case in.Op.IsCondBranch():
					fl.Target = resolveFrom(int32(fi), blockIndex(f, in.Label))
					site := prog.BranchSiteID(f, b)
					id, ok := siteID[site]
					if !ok {
						id = int32(len(c.sites))
						c.sites = append(c.sites, site)
						siteID[site] = id
					}
					fl.Site = id
				case in.Op == isa.J:
					fl.Target = resolveFrom(int32(fi), blockIndex(f, in.Label))
				case in.Op == isa.Call:
					ci := funcIdx[p.Func(in.Label)]
					fl.Target = resolveFromEntry(funcStart, funcEnd, ci)
				case in.Op == isa.Switch:
					fl.Targets = make([]int32, len(in.Targets))
					for ti, label := range in.Targets {
						fl.Targets[ti] = resolveFrom(int32(fi), blockIndex(f, label))
					}
				}
			}
		}
	}

	// Pass 3: static operand metadata and the replay dispatch kind.
	for i := range c.ins {
		fl := &c.ins[i]
		in := fl.Instr
		var rb [4]isa.Reg
		uses := in.AppendUses(rb[:0])
		if len(uses) > len(fl.Uses) {
			return nil, fmt.Errorf("interp: %s in %s/%s reads %d registers, at most %d are supported",
				in.Op, fl.Fn.Name, fl.Block.Name, len(uses), len(fl.Uses))
		}
		copy(fl.Uses[:], uses)
		fl.NUses = uint8(len(uses))
		defs := in.AppendDefs(rb[:0])
		if len(defs) > 0 {
			fl.Def = defs[0]
			fl.HasDef = true
		}
		for _, d := range defs {
			if d.IsInt() {
				fl.NeedsRename = true
				break
			}
			if d.IsFP() {
				fl.NeedsRename, fl.FPRename = true, true
				break
			}
		}
		switch {
		case in.Op.IsCondBranch():
			fl.Kind = KindCond
		case in.Op == isa.J:
			fl.Kind = KindJump
		case in.Op == isa.Call:
			fl.Kind = KindCall
		case in.Op == isa.Ret:
			fl.Kind = KindRet
		case in.Op == isa.Switch:
			fl.Kind = KindSwitch
		case in.Op == isa.Halt:
			fl.Kind = KindHalt
		default:
			fl.Kind = KindPlain
		}
	}

	ei := funcIdx[p.EntryFunc()]
	c.entry = resolveFromEntry(funcStart, funcEnd, ei)
	return c, nil
}

// resolveFromEntry returns the first flat instruction of function fi,
// or the fell-off-the-end sentinel when the function is entirely empty.
func resolveFromEntry(funcStart, funcEnd []int32, fi int32) int32 {
	if funcStart[fi] < funcEnd[fi] {
		return funcStart[fi]
	}
	return ^fi
}

// Program returns the predecoded program.
func (c *Code) Program() *prog.Program { return c.prog }

// Layout returns the code layout the flat addresses came from.
func (c *Code) Layout() *Layout { return c.layout }

// Len returns the number of flat instructions.
func (c *Code) Len() int { return len(c.ins) }

// Entry returns the flat index execution starts at.
func (c *Code) Entry() int32 { return c.entry }

// Flat returns flat instruction i. The pointer aliases Code-owned
// storage and must not be written through.
func (c *Code) Flat(i int32) *FlatInstr { return &c.ins[i] }

// NumSites returns the number of interned branch sites.
func (c *Code) NumSites() int { return len(c.sites) }

// SiteName returns the interned prog.BranchSiteID string for a dense
// site ID, so every Event of one site shares one string header.
func (c *Code) SiteName(id int32) string { return c.sites[id] }
