package interp

import (
	"testing"

	"specguard/internal/isa"
	"specguard/internal/prog"
)

func taintCode(t *testing.T, p *prog.Program) *Code {
	t.Helper()
	code, err := Predecode(p, nil)
	if err != nil {
		t.Fatal(err)
	}
	return code
}

// leakProg is the canonical taint fixture:
//
//	entry:  r5 = 8256 (secret base); r6 = mem[8256] (tainted, value 0)
//	        beq r1, 1, leak   — not taken in reality
//	cont:   lw r9, 0(r6)      — committed secret-indexed load
//	        halt
//	leak:   lw r8, 0(r6)      — wrong-path secret-indexed load
//	        halt
func leakProg(t *testing.T) *prog.Program {
	t.Helper()
	b := prog.NewBuilder("main")
	b.Block("entry").
		Li(isa.R(5), 8256).
		Load(isa.Lw, isa.R(6), isa.R(5), 0).
		Li(isa.R(1), 0).
		BranchI(isa.Beq, isa.R(1), 1, "leak")
	b.Block("cont").
		Load(isa.Lw, isa.R(9), isa.R(6), 0).
		Halt()
	b.Block("leak").
		Load(isa.Lw, isa.R(8), isa.R(6), 0).
		Halt()
	p := prog.NewProgram()
	p.AddFunc(b.Func())
	p.MustAddRegion(prog.Region{Name: "sec", Base: 8256, Len: 64, Secret: true})
	return p
}

// drainTaint steps tm to completion, returning the committed
// secret-indexed access count and the wrong-path summaries of every
// conditional branch.
func drainTaint(t *testing.T, tm *TaintMachine) (secret int, wps [][]WrongPathAccess) {
	t.Helper()
	var ev Event
	for {
		err := tm.Step(&ev)
		if err == ErrHalted {
			return
		}
		if err != nil {
			t.Fatal(err)
		}
		if ev.Branch {
			wps = append(wps, append([]WrongPathAccess(nil), ev.WrongPath...))
		}
		if ev.AddrSecret {
			secret++
		}
		if tm.Machine().Halted() {
			return
		}
	}
}

func TestTaintMachineLeakFields(t *testing.T) {
	code := taintCode(t, leakProg(t))
	tm := code.NewTaintMachine(Options{}, 64)

	secret, wps := drainTaint(t, tm)
	if secret != 1 {
		t.Errorf("committed secret-indexed accesses = %d, want 1 (the cont load)", secret)
	}
	if len(wps) != 1 {
		t.Fatalf("saw %d branches, want 1", len(wps))
	}
	wp := wps[0]
	if len(wp) != 1 {
		t.Fatalf("wrong-path summary = %v, want exactly one access", wp)
	}
	if wp[0].Dist != 1 {
		t.Errorf("wrong-path access at distance %d, want 1", wp[0].Dist)
	}
	fl := code.Flat(wp[0].Flat)
	if fl.Block.Name != "leak" || fl.Index != 0 {
		t.Errorf("wrong-path access at %s.%s[%d], want main.leak[0]",
			fl.Fn.Name, fl.Block.Name, fl.Index)
	}
}

// TestTaintMachineNoRegions pins the zero-cost contract: without secret
// regions every leak field stays zero.
func TestTaintMachineNoRegions(t *testing.T) {
	p := leakProg(t)
	p.Regions = nil
	code := taintCode(t, p)
	tm := code.NewTaintMachine(Options{}, 64)
	secret, wps := drainTaint(t, tm)
	if secret != 0 {
		t.Errorf("secret accesses = %d without secret regions", secret)
	}
	for _, wp := range wps {
		if len(wp) != 0 {
			t.Fatalf("wrong-path accesses recorded without secret regions: %v", wp)
		}
	}
}

// TestTaintGuardAnnulsWrongPathAccess pins the guarded-execution story:
// a wrong-path access whose guard predicate evaluates false is annulled
// before it could issue, so it is not recorded — predication closes the
// speculative leak.
func TestTaintGuardAnnulsWrongPathAccess(t *testing.T) {
	b := prog.NewBuilder("main")
	b.Block("entry").
		Li(isa.R(5), 8256).
		Load(isa.Lw, isa.R(6), isa.R(5), 0).
		OpI(isa.PEq, isa.P(1), isa.R(0), 1). // p1 = (0 == 1) = false
		Li(isa.R(1), 0).
		BranchI(isa.Beq, isa.R(1), 1, "leak")
	b.Block("cont").
		Halt()
	b.Block("leak").
		// (p1) lw r8, 0(r6): annulled on the wrong path since p1=false.
		Emit(isa.Instr{Op: isa.Lw, Rd: isa.R(8), Rs: isa.R(6), Pred: isa.P(1)}).
		Halt()
	p := prog.NewProgram()
	p.AddFunc(b.Func())
	p.MustAddRegion(prog.Region{Name: "sec", Base: 8256, Len: 64, Secret: true})

	tm := taintCode(t, p).NewTaintMachine(Options{}, 64)
	_, wps := drainTaint(t, tm)
	for _, wp := range wps {
		if len(wp) != 0 {
			t.Fatalf("guarded wrong-path access recorded: %v", wp)
		}
	}
}

// TestTaintStoreUntaints pins the strong-update semantics: storing a
// public value over a secret word reclassifies it, so a later load of
// that word carries no taint and accesses indexed by it are clean.
func TestTaintStoreUntaints(t *testing.T) {
	b := prog.NewBuilder("main")
	b.Block("entry").
		Li(isa.R(5), 8256).
		Li(isa.R(2), 16).
		Store(isa.Sw, isa.R(2), isa.R(5), 0). // overwrite the secret word with public 16
		Load(isa.Lw, isa.R(6), isa.R(5), 0).  // r6 = 16, now public
		Load(isa.Lw, isa.R(9), isa.R(6), 0).  // indexed by the overwritten word
		Halt()
	p := prog.NewProgram()
	p.AddFunc(b.Func())
	p.MustAddRegion(prog.Region{Name: "sec", Base: 8256, Len: 8, Secret: true})

	tm := taintCode(t, p).NewTaintMachine(Options{}, 64)
	secret, _ := drainTaint(t, tm)
	if secret != 0 {
		t.Fatalf("%d accesses flagged secret after the word was overwritten public", secret)
	}
}

// TestTaintMatchesMachine pins that the taint layer is a pure overlay:
// architectural results equal the plain Machine's.
func TestTaintMatchesMachine(t *testing.T) {
	code := taintCode(t, leakProg(t))
	tm := code.NewTaintMachine(Options{}, 64)
	m := code.NewMachine(Options{})

	resT, errT := tm.Run(nil)
	resM, errM := m.Run(nil)
	if (errT == nil) != (errM == nil) {
		t.Fatalf("errors differ: taint=%v machine=%v", errT, errM)
	}
	if resT != resM {
		t.Fatalf("taint machine diverged from plain machine:\ntaint:   %+v\nmachine: %+v", resT, resM)
	}
}
