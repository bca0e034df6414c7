package xform

import (
	"fmt"

	"specguard/internal/dep"
	"specguard/internal/isa"
	"specguard/internal/machine"
	"specguard/internal/prog"
	"specguard/internal/sched"
)

// SpecOptions tunes Speculate.
type SpecOptions struct {
	// Loads permits hoisting loads above the branch. A speculated load
	// executes on both paths, so the caller must know its address
	// register is valid regardless of the branch direction (the paper
	// relies on hardware support for this; our IR executes
	// architecturally, so it is opt-in).
	Loads bool
	// Max bounds how many instructions are hoisted; 0 means no limit.
	Max int
	// Model, when set, enforces the paper's vacant-slot policy: an
	// instruction is hoisted only while the destination block's local
	// schedule does not lengthen ("assume that block one has four
	// vacant slots"). Without a model, hoisting is purely structural.
	Model *machine.Model
}

// Speculate hoists eligible instructions from the top of block `from`
// into block `into` (one of whose successors must be `from`), inserting
// them before into's terminator. This is the paper's speculative
// execution with software renaming (Fig. 1(b)(c)):
//
//   - an instruction is eligible if its operation is side-effect-free
//     (ALU, shift, FP, moves; loads only with opts.Loads), it is
//     unguarded, and every source is available at the end of `into` —
//     i.e. not defined by an earlier non-hoisted instruction of `from`;
//   - if the destination's old value may still be needed — it is used
//     by an earlier non-hoisted instruction of `from`, read by into's
//     terminator, or live into another successor of `into` — the
//     destination is renamed to a register from pool, and a copy
//     "mov old, new" is left at the original position (Fig. 1(b):
//     "r6 is renamed to r9 … a copy instruction mov r6,r9 is
//     inserted");
//   - forward substitution then rewrites uses of the old register
//     after the copy to use the renamed register directly, shrinking
//     the true dependence on the copy.
//
// It returns the number of instructions hoisted. The function's CFG is
// unchanged (no edges move); the caller re-verifies the program.
func Speculate(f *prog.Func, into, from *prog.Block, pool *RegPool, opts SpecOptions) (int, error) {
	if into == from {
		return 0, fmt.Errorf("xform: cannot speculate a block into itself")
	}
	found := false
	for _, s := range into.Succs {
		if s == from {
			found = true
			break
		}
	}
	if !found {
		return 0, fmt.Errorf("xform: %s is not a successor of %s", from.Name, into.Name)
	}
	if len(from.Preds) != 1 {
		return 0, fmt.Errorf("xform: %s has %d predecessors; hoisting would execute its code on foreign paths",
			from.Name, len(from.Preds))
	}

	live := dep.Liveness(f)

	// Registers whose value must survive at the end of `into` on paths
	// other than through `from`, plus the terminator's own reads.
	var protected dep.RegSet
	for _, s := range into.Succs {
		if s != from {
			protected = protected.Union(live.In[s])
		}
	}
	if t := into.Terminator(); t != nil {
		protected = protected.Union(dep.UsesOf(t))
	}

	hoisted := 0
	renames := map[isa.Reg]isa.Reg{} // old dest → renamed dest (within this pass)
	var stayDefs dep.RegSet          // regs defined by non-hoisted instrs seen so far
	var stayUses dep.RegSet          // regs used by non-hoisted instrs seen so far
	seenStore := false

	baseLen := -1
	if opts.Model != nil {
		baseLen = sched.Length(into.Instrs, opts.Model)
	}

	var keep []*isa.Instr // instructions remaining in `from`
	for idx := 0; idx < len(from.Instrs); idx++ {
		in := from.Instrs[idx]
		if opts.Max > 0 && hoisted >= opts.Max {
			keep = append(keep, from.Instrs[idx:]...)
			break
		}
		if !eligibleOp(in, opts) || in.Op.IsControl() {
			keep = append(keep, in)
			stayDefs = stayDefs.Union(dep.DefsOf(in))
			stayUses = stayUses.Union(dep.UsesOf(in))
			if in.Op.IsStore() {
				seenStore = true
			}
			continue
		}
		if in.Op.IsLoad() && seenStore {
			// A load must not be hoisted above a store it followed.
			keep = append(keep, in)
			stayDefs = stayDefs.Union(dep.DefsOf(in))
			stayUses = stayUses.Union(dep.UsesOf(in))
			continue
		}
		// Source availability: every source must be live at the end of
		// `into`, i.e. not produced by a non-hoisted instruction above.
		blocked := false
		var ubuf [3]isa.Reg
		for _, u := range in.AppendUses(ubuf[:0]) {
			if stayDefs.Has(u) {
				blocked = true
				break
			}
		}
		if blocked {
			keep = append(keep, in)
			stayDefs = stayDefs.Union(dep.DefsOf(in))
			stayUses = stayUses.Union(dep.UsesOf(in))
			continue
		}

		h := in.Clone()
		// Rewrite sources through the rename map (a previously hoisted
		// producer may have been renamed).
		substUses(h, renames)

		// Vacant-slot policy: refuse the hoist if it would lengthen
		// the destination block's schedule. (The trial uses the
		// pre-rename destination; a renamed destination only removes
		// dependences, so the check is conservative.)
		if baseLen >= 0 {
			trial := withInstrBeforeTerminator(into.Instrs, h)
			if sched.Length(trial, opts.Model) > baseLen {
				keep = append(keep, in)
				stayDefs = stayDefs.Union(dep.DefsOf(in))
				stayUses = stayUses.Union(dep.UsesOf(in))
				continue
			}
		}

		// Destination handling.
		var needRename bool
		var oldDest isa.Reg
		var dbuf [1]isa.Reg
		if ds := h.AppendDefs(dbuf[:0]); len(ds) == 1 {
			oldDest = ds[0]
			needRename = stayUses.Has(oldDest) || protected.Has(oldDest)
		}
		if needRename && oldDest.IsFP() {
			// Renaming FP destinations would need an FP pool; keep the
			// instruction in place instead (rare in these integer
			// workloads).
			keep = append(keep, in)
			stayDefs = stayDefs.Union(dep.DefsOf(in))
			stayUses = stayUses.Union(dep.UsesOf(in))
			continue
		}
		if needRename {
			nr, ok := pool.Get()
			if !ok {
				// Register pressure: stop speculating this block
				// (the paper's §3 "unnecessary register spilling"
				// trade-off, surfaced as a hard stop).
				keep = append(keep, from.Instrs[idx:]...)
				break
			}
			h.Rd = nr
			renames[oldDest] = nr
			// The copy stays at the original position.
			keep = append(keep, &isa.Instr{Op: isa.Mov, Rd: oldDest, Rs: nr})
			// After the copy, oldDest is re-established; the rename map
			// only applies to hoisted instructions, and forward
			// substitution below optimizes the stayers.
		} else if oldDest.Valid() {
			// The hoisted def becomes the current value of oldDest for
			// later hoisted instructions too; drop any stale mapping.
			delete(renames, oldDest)
		}

		h.Speculated = true
		insertBeforeTerminator(into, h)
		hoisted++
	}
	from.Instrs = keep

	// Forward substitution over the copies we left behind.
	for i, in := range from.Instrs {
		if in.Op == isa.Mov && !in.Guarded() && in.Rs.Valid() {
			ForwardSubstitute(from, i)
		}
	}
	return hoisted, nil
}

// eligibleOp reports whether in's operation may execute speculatively.
func eligibleOp(in *isa.Instr, opts SpecOptions) bool {
	if in.Guarded() {
		return false
	}
	op := in.Op
	switch {
	case op.IsStore():
		return false
	case op.IsLoad():
		return opts.Loads
	case op == isa.Div:
		return false // may trap on zero when the guarding branch is wrong
	case op.IsControl(), op == isa.Nop:
		return false
	case op.IsPredDef():
		// Predicate destinations would need a predicate rename pool;
		// the optimizer never needs to hoist them.
		return false
	}
	return true
}

// substUses rewrites in's source registers through the rename map.
func substUses(in *isa.Instr, renames map[isa.Reg]isa.Reg) {
	if len(renames) == 0 {
		return
	}
	if r, ok := renames[in.Rs]; ok {
		in.Rs = r
	}
	if r, ok := renames[in.Rt]; ok {
		in.Rt = r
	}
	// Store-value operand (Rd doubles as a source for stores).
	if in.Op.IsStore() {
		if r, ok := renames[in.Rd]; ok {
			in.Rd = r
		}
	}
	if r, ok := renames[in.Pred]; ok {
		in.Pred = r
	}
}

// insertBeforeTerminator places in before b's terminator (or appends).
func insertBeforeTerminator(b *prog.Block, in *isa.Instr) {
	if t := b.Terminator(); t != nil {
		b.Instrs = append(b.Instrs[:len(b.Instrs)-1], in, t)
		return
	}
	b.Instrs = append(b.Instrs, in)
}

// withInstrBeforeTerminator returns a fresh slice equal to ins with
// extra inserted before the terminator (for trial scheduling).
func withInstrBeforeTerminator(ins []*isa.Instr, extra *isa.Instr) []*isa.Instr {
	cut := len(ins)
	if cut > 0 && ins[cut-1].Op.IsControl() {
		cut--
	}
	out := make([]*isa.Instr, 0, len(ins)+1)
	out = append(out, ins[:cut]...)
	out = append(out, extra)
	out = append(out, ins[cut:]...)
	return out
}

// ForwardSubstitute applies the paper's forward substitution to the
// copy instruction at index idx of b ("all subsequent uses of the
// destination register of the copy instruction are replaced by its
// source register"): uses of the copy's destination after idx are
// rewritten to the copy's source, stopping when either register is
// redefined. It reports how many operands were rewritten.
func ForwardSubstitute(b *prog.Block, idx int) int {
	cp := b.Instrs[idx]
	if cp.Op != isa.Mov || cp.Guarded() {
		return 0
	}
	dst, src := cp.Rd, cp.Rs
	n := 0
	for _, in := range b.Instrs[idx+1:] {
		if in.Rs == dst {
			in.Rs = src
			n++
		}
		if in.Rt == dst {
			in.Rt = src
			n++
		}
		if in.Op.IsStore() && in.Rd == dst {
			in.Rd = src
			n++
		}
		defs := dep.DefsOf(in)
		if defs.Has(dst) || defs.Has(src) {
			break
		}
	}
	return n
}
