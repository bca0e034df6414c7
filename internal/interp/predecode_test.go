package interp

import (
	"testing"
	"unsafe"

	"specguard/internal/asm"
	"specguard/internal/isa"
	"specguard/internal/prog"
)

// checkLockstep runs p on the reference interpreter and the predecoded
// machine in lockstep and demands identical events, identical errors
// and an identical final register file.
func checkLockstep(t *testing.T, p *prog.Program, opts Options) {
	t.Helper()
	ref, rerr := New(p, nil, opts)
	code, cerr := Predecode(p, nil)
	if (rerr == nil) != (cerr == nil) {
		t.Fatalf("New err=%v but Predecode err=%v", rerr, cerr)
	}
	if rerr != nil {
		if rerr.Error() != cerr.Error() {
			t.Fatalf("construction errors differ:\nref:  %v\nflat: %v", rerr, cerr)
		}
		return
	}
	m := code.NewMachine(opts)
	var ev Event
	for i := 0; ; i++ {
		evR, errR := ref.Step()
		errM := m.Step(&ev)
		if (errR == nil) != (errM == nil) {
			t.Fatalf("step %d: ref err=%v, machine err=%v", i, errR, errM)
		}
		if errR != nil {
			if errR.Error() != errM.Error() {
				t.Fatalf("step %d: errors differ:\nref:     %v\nmachine: %v", i, errR, errM)
			}
			break
		}
		// Flat is a replay-acceleration hint the reference interpreter
		// never sets; verify it names the executed instruction, then
		// exclude it from the identity check.
		if code.Flat(ev.Flat).Instr != ev.Instr {
			t.Fatalf("step %d: Flat hint %d does not name the executed instruction", i, ev.Flat)
		}
		ev.Flat = evR.Flat
		if !evR.SameArch(&ev) {
			t.Fatalf("step %d: events differ:\nref:     %+v\nmachine: %+v", i, evR, ev)
		}
		if ref.Halted() != m.Halted() {
			t.Fatalf("step %d: halted ref=%v machine=%v", i, ref.Halted(), m.Halted())
		}
		if ref.Steps() != m.Steps() {
			t.Fatalf("step %d: steps ref=%d machine=%d", i, ref.Steps(), m.Steps())
		}
		if ref.Halted() {
			break
		}
	}
	for r := 1; r < isa.NumIntRegs; r++ {
		if a, b := ref.Reg(isa.R(r)), m.Reg(isa.R(r)); a != b {
			t.Errorf("final r%d: ref %d, machine %d", r, a, b)
		}
	}
}

func lockstepSrc(t *testing.T, src string) {
	t.Helper()
	checkLockstep(t, asm.MustParse(src), Options{})
}

func TestMachineLockstepLoop(t *testing.T) {
	lockstepSrc(t, `
func main:
entry:
	li r1, 0
	li r5, 9000
loop:
	lw r3, 0(r5)
	add r3, r3, 1
	sw r3, 0(r5)
	and r2, r1, 7
	beq r2, 0, sp
pl:
	add r4, r4, 1
	j next
sp:
	add r6, r6, 1
next:
	add r1, r1, 1
	blt r1, 200, loop
exit:
	halt
`)
}

func TestMachineLockstepGuarded(t *testing.T) {
	lockstepSrc(t, `
func main:
entry:
	li r1, 0
	li r8, 1024
loop:
	and r2, r1, 3
	peq p1, r2, 0
	(p1) add r3, r3, 5
	(!p1) sub r3, r3, 1
	(p1) sw r3, 0(r8)
	(!p1) lw r4, 0(r8)
	add r1, r1, 1
	blt r1, 50, loop
exit:
	halt
`)
}

func TestMachineLockstepCallSwitch(t *testing.T) {
	lockstepSrc(t, `
func main:
entry:
	li r1, 0
loop:
	and r2, r1, 3
	switch r2, t0, t1, t2, t3
t0:
	add r3, r3, 1
	j step
t1:
	call helper
aftercall:
	j step
t2:
	sub r3, r3, 2
	j step
t3:
	xor r3, r3, 7
step:
	add r1, r1, 1
	blt r1, 40, loop
exit:
	halt

func helper:
body:
	add r4, r4, 10
	slt r5, r4, 100
	peq p2, r5, 1
	(p2) add r3, r3, 3
	ret
`)
}

func TestMachineLockstepFloat(t *testing.T) {
	lockstepSrc(t, `
func main:
entry:
	li r1, 4607182418800017408
	sw r1, 0(r0)
	lf f1, 0(r0)
	fadd f2, f1, f1
	fmul f3, f2, f1
	fsub f4, f3, f1
	fdiv f5, f4, f2
	fmov f6, f5
	sf f6, 8(r0)
	lw r2, 8(r0)
	halt
`)
}

// Transform-created empty blocks exercise the skip loop / Next
// resolution: delete every body instruction of a few blocks and demand
// the two front ends still agree.
func TestMachineLockstepEmptyBlocks(t *testing.T) {
	p := asm.MustParse(`
func main:
entry:
	li r1, 0
loop:
	and r2, r1, 1
	beq r2, 0, even
odd:
	add r3, r3, 1
	j step
even:
	add r4, r4, 1
step:
	add r1, r1, 1
	blt r1, 30, loop
exit:
	halt
`)
	f := p.EntryFunc()
	even := f.Block("even")
	even.Instrs = nil //sgvet:allow instrs-mutation
	f.MustRebuildCFG()
	checkLockstep(t, p, Options{})
}

func TestMachineLockstepErrors(t *testing.T) {
	cases := map[string]string{
		"div-zero": `
func main:
B0:
	li r1, 5
	div r2, r1, r0
	halt
`,
		"bad-addr": `
func main:
B0:
	li r1, -16
	lw r2, 0(r1)
	halt
`,
		"unaligned": `
func main:
B0:
	li r1, 12
	lw r2, 1(r1)
	halt
`,
		"switch-range": `
func main:
B0:
	li r1, 9
	switch r1, B0, B1
B1:
	halt
`,
		"ret-entry": `
func main:
B0:
	ret
`,
	}
	for name, src := range cases {
		t.Run(name, func(t *testing.T) { lockstepSrc(t, src) })
	}
}

func TestMachineLockstepMaxSteps(t *testing.T) {
	p := asm.MustParse(`
func main:
B0:
	add r1, r1, 1
	j B0
`)
	checkLockstep(t, p, Options{MaxSteps: 100})
}

func TestMachineReset(t *testing.T) {
	p := asm.MustParse(`
func main:
B0:
	li r1, 3
	sw r1, 0(r0)
loop:
	add r2, r2, 1
	blt r2, 10, loop
B1:
	halt
`)
	code, err := Predecode(p, nil)
	if err != nil {
		t.Fatal(err)
	}
	m := code.NewMachine(Options{})
	first, err := m.Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	m.Reset()
	if m.Steps() != 0 || m.Halted() {
		t.Fatalf("Reset left steps=%d halted=%v", m.Steps(), m.Halted())
	}
	if v, _ := m.ReadWord(0); v != 0 {
		t.Fatalf("Reset left memory word 0 = %d", v)
	}
	second, err := m.Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	if first != second {
		t.Fatalf("rerun after Reset diverged:\nfirst:  %+v\nsecond: %+v", first, second)
	}
}

func TestCodeSiteInterning(t *testing.T) {
	p := asm.MustParse(`
func main:
entry:
	li r1, 0
loop:
	add r1, r1, 1
	blt r1, 10, loop
exit:
	halt
`)
	code, err := Predecode(p, nil)
	if err != nil {
		t.Fatal(err)
	}
	if code.NumSites() != 1 {
		t.Fatalf("NumSites = %d, want 1", code.NumSites())
	}
	if got := code.SiteName(0); got != "main.loop" {
		t.Fatalf("SiteName(0) = %q, want %q", got, "main.loop")
	}
	m := code.NewMachine(Options{})
	interned := unsafe.StringData(code.SiteName(0))
	var ev Event
	for !m.Halted() {
		if err := m.Step(&ev); err != nil {
			t.Fatal(err)
		}
		if ev.Branch && unsafe.StringData(ev.BranchSite) != interned {
			t.Fatal("branch event did not reuse the interned site string")
		}
	}
}

// benchSrc is the BenchmarkPipe kernel (see internal/pipeline); the
// front-end benchmarks step the same instruction mix.
const benchSrc = `
func main:
entry:
	li r1, 0
	li r5, 9000
loop:
	lw r3, 0(r5)
	add r3, r3, 1
	sw r3, 0(r5)
	and r2, r1, 7
	beq r2, 0, sp
pl:
	add r4, r4, 1
	j next
sp:
	add r6, r6, 1
next:
	add r1, r1, 1
	blt r1, 50000, loop
exit:
	halt
`

// BenchmarkInterpStep compares the per-instruction cost of the two
// front ends: the reference tree-walking interpreter returning Events
// by value, and the predecoded machine filling a reused record.
func BenchmarkInterpStep(b *testing.B) {
	p := asm.MustParse(benchSrc)

	b.Run("live", func(b *testing.B) {
		b.ReportAllocs()
		var instrs int64
		for i := 0; i < b.N; i++ {
			m, err := New(p, nil, Options{})
			if err != nil {
				b.Fatal(err)
			}
			res, err := m.Run(nil)
			if err != nil {
				b.Fatal(err)
			}
			instrs += res.DynInstrs
		}
		b.ReportMetric(float64(instrs)/b.Elapsed().Seconds()/1e6, "Minstr/s")
	})

	b.Run("predecoded", func(b *testing.B) {
		code, err := Predecode(p, nil)
		if err != nil {
			b.Fatal(err)
		}
		m := code.NewMachine(Options{})
		b.ReportAllocs()
		b.ResetTimer()
		var instrs int64
		for i := 0; i < b.N; i++ {
			m.Reset()
			res, err := m.Run(nil)
			if err != nil {
				b.Fatal(err)
			}
			instrs += res.DynInstrs
		}
		b.ReportMetric(float64(instrs)/b.Elapsed().Seconds()/1e6, "Minstr/s")
	})
}

// TestMachineRunYields: a run yields its processor once every 2^16
// events, on a Machine and a TaintMachine alike.
func TestMachineRunYields(t *testing.T) {
	orig := yield
	defer func() { yield = orig }()
	n := int64(0)
	yield = func() { n++ }
	code, err := Predecode(asm.MustParse(`
func main:
entry:
	li r1, 0
loop:
	add r1, r1, 1
	blt r1, 150000, loop
exit:
	halt
`), nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, run := range []func(func(*Event)) (Result, error){code.NewMachine(Options{}).Run, code.NewTaintMachine(Options{}, 64).Run} {
		n = 0
		res, err := run(nil)
		if err != nil {
			t.Fatal(err)
		}
		if want := res.DynInstrs / yieldEvents; want < 4 || n != want {
			t.Errorf("%d yields over %d events, want %d", n, res.DynInstrs, want)
		}
	}
}
