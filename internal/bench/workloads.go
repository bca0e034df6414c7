// Package bench holds the synthetic workload kernels standing in for
// the paper's benchmarks (compress, espresso, xlisp, grep — §6) and the
// experiment harness that regenerates the paper's tables and figures.
//
// The kernels are written to reproduce the *branch behaviour* the
// paper measured (Table 1: ~19–23 % dynamic branch density, 89–95 %
// 2-bit prediction accuracy) and the structural features each program
// is known for: compress's dense nested data-dependent branches,
// espresso's phase-structured sweeps over sorted cube lists, xlisp's
// indirect dispatch and calls, grep's heavily biased scan branches.
// Inputs are deterministic pseudo-random streams installed into the
// interpreter's memory by each workload's Init function.
package bench

import (
	"fmt"
	"slices"
	"sync"

	"specguard/internal/core"
	"specguard/internal/interp"
	"specguard/internal/isa"
	"specguard/internal/prog"
)

// Workload is one benchmark kernel.
type Workload struct {
	Name string
	// Build returns a fresh program (callers mutate it).
	Build func() *prog.Program
	// Init installs the input data into memory before execution. It
	// takes the interp.Memory interface so the same initializer drives
	// both the reference interpreter and the predecoded machine.
	Init func(interp.Memory) error
	// Opt carries workload-specific optimizer options (zero value =
	// paper defaults).
	Opt core.Options

	proto *protoCache // the built-in kernels' prototype, nil otherwise
}

// Fingerprint returns the fingerprint of the program Build returns.
// The built-in kernels compute it once per process with their
// prototype, sparing every caller that only names the base program
// (program-cache and store keys) a deep clone and a full rendering.
func (w Workload) Fingerprint() uint64 {
	if w.proto != nil {
		return w.proto.load().fp
	}
	return w.Build().Fingerprint()
}

// protoCache builds a kernel's IR once per process and hands out deep
// clones: harness callers mutate their copy (the optimizer rewrites
// blocks in place), so Build must stay fresh-per-call, but the builder
// chains themselves are pure and need not rerun for every simulation.
type protoCache struct {
	build func() *prog.Program
	once  sync.Once
	proto *prog.Program
	fp    uint64
}

func (c *protoCache) load() *protoCache {
	c.once.Do(func() {
		c.proto = c.build()
		c.fp = c.proto.Fingerprint()
	})
	return c
}

// workload names the kernel c builds.
func (c *protoCache) workload(name string, init func(interp.Memory) error) Workload {
	return Workload{Name: name, Build: func() *prog.Program { return c.load().proto.Clone() }, Init: init, proto: c}
}

var (
	compressProto = protoCache{build: buildCompress}
	espressoProto = protoCache{build: buildEspresso}
	xlispProto    = protoCache{build: buildXlisp}
	grepProto     = protoCache{build: buildGrep}
)

// kernels is the registry All and ByName serve, built once.
var kernels = []Workload{Compress(), Espresso(), Xlisp(), Grep()}

// All returns the four kernels in the paper's Table 1 order.
func All() []Workload { return slices.Clone(kernels) }

// ByName returns the named workload.
func ByName(name string) (Workload, error) {
	for _, w := range kernels {
		if w.Name == name {
			return w, nil
		}
	}
	return Workload{}, fmt.Errorf("bench: unknown workload %q", name)
}

// lcg is the deterministic input generator shared by the kernels.
type lcg struct{ s uint64 }

func (l *lcg) next() uint64 {
	l.s = l.s*6364136223846793005 + 1442695040888963407
	return l.s >> 33
}

// Shared register conventions (documented per kernel):
//
//	r1  loop index            r9–r11 data-region bases
//	r2+ kernel state          r13    trip count
const (
	compressIn   = 16384   // input byte stream
	compressHT   = 1 << 18 // hash table, 4096 slots
	compressOut  = 1 << 19 // result cell
	compressN    = 20000   // input length
	compressHTsz = 4096
)

// Compress is an LZW-style dictionary builder: per input symbol it
// hashes (prefix, char), probes a linear-probed hash table with dense
// nested data-dependent branches ("several nested branches with
// minimal code interspersed between them"), and either extends or
// installs a dictionary entry. A noisy parity diamond models the
// bit-twiddling compress does per symbol and gives the optimizer an
// if-conversion target.
func Compress() Workload {
	return compressProto.workload("compress", initCompress)
}

func buildCompress() *prog.Program {
	b := prog.NewBuilder("main")
	r := isa.R
	b.Block("entry").
		Li(r(9), compressIn).
		Li(r(10), compressHT).
		Li(r(11), compressOut).
		Li(r(13), compressN).
		Li(r(1), 0).  // i
		Li(r(2), 0).  // prefix
		Li(r(7), 256) // next dictionary code

	b.Block("loop").
		OpI(isa.Sll, r(12), r(1), 3).
		Op3(isa.Add, r(12), r(12), r(9)).
		Load(isa.Lw, r(3), r(12), 0) // c = in[i]

	// Noisy parity diamond (if-conversion target): odd/even symbol
	// statistics.
	b.Block("par").
		OpI(isa.And, r(16), r(3), 1).
		BranchI(isa.Beq, r(16), 0, "even")
	b.Block("odd").
		Op3(isa.Add, r(17), r(17), r(3)).
		Jump("mid")
	b.Block("even").
		Op3(isa.Add, r(18), r(18), r(3))

	// Second noisy diamond: mid-bit statistics (random on this input).
	b.Block("mid").
		OpI(isa.And, r(16), r(3), 4).
		BranchI(isa.Beq, r(16), 0, "lowhalf")
	b.Block("highhalf").
		OpI(isa.Add, r(20), r(20), 1).
		OpI(isa.Xor, r(21), r(21), 5).
		Jump("hash")
	b.Block("lowhalf").
		OpI(isa.Add, r(21), r(21), 1).
		OpI(isa.Xor, r(20), r(20), 3)

	b.Block("hash").
		OpI(isa.Sll, r(4), r(2), 4).
		Op3(isa.Xor, r(4), r(4), r(3)).
		OpI(isa.And, r(4), r(4), compressHTsz-1).
		OpI(isa.Sll, r(6), r(2), 8).
		Op3(isa.Or, r(6), r(6), r(3)) // want = prefix<<8 | c

	b.Block("preprobe").
		Li(r(19), 0) // probe budget
	b.Block("probe").
		OpI(isa.Sll, r(12), r(4), 3).
		Op3(isa.Add, r(12), r(12), r(10)).
		Load(isa.Lw, r(5), r(12), 0).
		BranchI(isa.Beq, r(5), 0, "miss") // empty slot?
	b.Block("cmp").
		OpI(isa.Srl, r(15), r(5), 8).
		Branch(isa.Beq, r(15), r(6), "hit") // dictionary hit?
	b.Block("coll").
		OpI(isa.Add, r(4), r(4), 1).
		OpI(isa.And, r(4), r(4), compressHTsz-1).
		OpI(isa.Add, r(19), r(19), 1).
		BranchI(isa.Blt, r(19), 8, "probe") // bounded linear probe
	b.Block("giveup").
		Mov(r(2), r(3)). // flush the prefix, as compress does on a full dictionary
		Jump("next")

	b.Block("hit").
		OpI(isa.And, r(2), r(5), 255). // prefix = stored code
		OpI(isa.Add, r(8), r(8), 1).
		Jump("next")

	b.Block("miss").
		OpI(isa.Sll, r(15), r(6), 8).
		OpI(isa.And, r(14), r(7), 255).
		Op3(isa.Or, r(15), r(15), r(14)).
		Store(isa.Sw, r(15), r(12), 0). // install entry
		OpI(isa.Add, r(7), r(7), 1).
		Mov(r(2), r(3)) // prefix = c

	b.Block("next").
		OpI(isa.Add, r(1), r(1), 1).
		Branch(isa.Blt, r(1), r(13), "loop")

	b.Block("exit").
		Store(isa.Sw, r(8), r(11), 0).
		Store(isa.Sw, r(17), r(11), 8).
		Store(isa.Sw, r(18), r(11), 16).
		Halt()

	p := prog.NewProgram()
	p.AddFunc(b.Func())
	p.MustAddRegion(prog.Region{Name: "in", Base: compressIn, Len: compressN * 8})
	p.MustAddRegion(prog.Region{Name: "ht", Base: compressHT, Len: compressHTsz * 8})
	p.MustAddRegion(prog.Region{Name: "out", Base: compressOut, Len: 64})
	return p
}

func initCompress(m interp.Memory) error {
	g := lcg{s: 0xC0FFEE}
	for i := int64(0); i < compressN; i++ {
		// Small alphabet with repetition so dictionary hits develop.
		sym := int64(g.next() % 61)
		if err := m.WriteWord(compressIn+8*i, sym); err != nil {
			return err
		}
	}
	return nil
}

const (
	espressoCubes = 1 << 17 // cube mask array
	espressoOut   = 1 << 19
	espressoN     = 24000
)

// Espresso sweeps a cube list testing each cube against a selection
// mask. The list is sorted the way espresso's cofactor partitions are:
// covered cubes first, a mixed region, uncovered cubes last — giving
// the cover-test branch the paper's Fig. 3 phase structure. A second,
// biased sparsity branch and a popcount-flavoured inner computation
// round out the mix.
func Espresso() Workload {
	return espressoProto.workload("espresso", initEspresso)
}

func buildEspresso() *prog.Program {
	b := prog.NewBuilder("main")
	r := isa.R
	b.Block("entry").
		Li(r(9), espressoCubes).
		Li(r(11), espressoOut).
		Li(r(13), espressoN).
		Li(r(1), 0).
		Li(r(2), 0xFF) // selection mask

	b.Block("loop").
		OpI(isa.Sll, r(12), r(1), 3).
		Op3(isa.Add, r(12), r(12), r(9)).
		Load(isa.Lw, r(3), r(12), 0) // cube mask

	// Phase-structured cover test (sorted input).
	b.Block("cover").
		Op3(isa.And, r(4), r(3), r(2)).
		BranchI(isa.Beq, r(4), 0, "skip")
	b.Block("covered").
		OpI(isa.Add, r(5), r(5), 1).
		Jump("pop")
	b.Block("skip").
		OpI(isa.Add, r(6), r(6), 1)

	// Popcount over the low byte: straight-line shift/mask work.
	b.Block("pop").
		OpI(isa.Srl, r(14), r(3), 1).
		OpI(isa.And, r(14), r(14), 0x55).
		Op3(isa.Sub, r(15), r(3), r(14)).
		OpI(isa.And, r(16), r(15), 0x33).
		OpI(isa.Srl, r(17), r(15), 2).
		OpI(isa.And, r(17), r(17), 0x33).
		Op3(isa.Add, r(16), r(16), r(17)).
		Op3(isa.Add, r(7), r(7), r(16))

	// Biased sparsity branch (~6% taken): cube empty in the low byte.
	b.Block("sparse").
		OpI(isa.And, r(18), r(3), 0xFF).
		BranchI(isa.Bne, r(18), 0, "dense")
	b.Block("empty").
		OpI(isa.Add, r(8), r(8), 1)
	b.Block("dense").
		OpI(isa.Add, r(1), r(1), 1).
		Branch(isa.Blt, r(1), r(13), "loop")

	b.Block("exit").
		Store(isa.Sw, r(5), r(11), 0).
		Store(isa.Sw, r(6), r(11), 8).
		Store(isa.Sw, r(7), r(11), 16).
		Store(isa.Sw, r(8), r(11), 24).
		Halt()

	p := prog.NewProgram()
	p.AddFunc(b.Func())
	p.MustAddRegion(prog.Region{Name: "cubes", Base: espressoCubes, Len: espressoN * 8})
	p.MustAddRegion(prog.Region{Name: "out", Base: espressoOut, Len: 64})
	return p
}

func initEspresso(m interp.Memory) error {
	g := lcg{s: 0xE59}
	for i := int64(0); i < espressoN; i++ {
		var mask int64
		frac := float64(i) / espressoN
		switch {
		case frac < 0.40: // covered phase: low byte overlaps 0xFF
			mask = int64(1+g.next()%0xFE) | int64(g.next()%16)<<8
		case frac < 0.60: // mixed region
			if g.next()%2 == 0 {
				mask = int64(1 + g.next()%0xFE)
			} else {
				mask = int64(g.next()%16) << 8
			}
		default: // uncovered phase: low byte clear
			mask = int64(1+g.next()%15) << 8
		}
		if err := m.WriteWord(espressoCubes+8*i, mask); err != nil {
			return err
		}
	}
	return nil
}

const (
	xlispCode  = 1 << 15 // 22000 opcodes end well below the heap base
	xlispHeap  = 1 << 18
	xlispOut   = 1 << 19
	xlispSteps = 22000
)

// Xlisp is a bytecode interpreter: a dispatch loop over a register-
// relative jump (the paper's "used in the context of switch
// statements" class, never registered in the BTB) with seven opcode
// handlers, cons-cell heap traffic, and a called helper (subroutine
// call + return, also non-BTB). This is why the paper's xlisp has the
// lowest IPC of the four under every scheme.
func Xlisp() Workload {
	return xlispProto.workload("xlisp", initXlisp)
}

func buildXlisp() *prog.Program {
	b := prog.NewBuilder("main")
	r := isa.R
	b.Block("entry").
		Li(r(9), xlispCode).
		Li(r(10), xlispHeap).
		Li(r(11), xlispOut).
		Li(r(13), xlispSteps).
		Li(r(1), 0). // pc
		Li(r(2), 0). // accumulator
		Li(r(7), 0)  // heap allocation cursor

	b.Block("dispatch").
		OpI(isa.Sll, r(12), r(1), 3).
		Op3(isa.Add, r(12), r(12), r(9)).
		Load(isa.Lw, r(3), r(12), 0). // opcode
		Switch(r(3), "opAdd", "opSub", "opCar", "opCdr", "opCons", "opCall", "opNil")

	b.Block("opAdd").
		OpI(isa.Add, r(2), r(2), 7).
		Jump("step")
	b.Block("opSub").
		OpI(isa.Sub, r(2), r(2), 3).
		Jump("step")
	b.Block("opCar").
		OpI(isa.And, r(14), r(2), 1023).
		OpI(isa.Sll, r(14), r(14), 3).
		Op3(isa.Add, r(14), r(14), r(10)).
		Load(isa.Lw, r(2), r(14), 0).
		Jump("step")
	b.Block("opCdr").
		OpI(isa.And, r(14), r(2), 1023).
		OpI(isa.Sll, r(14), r(14), 3).
		Op3(isa.Add, r(14), r(14), r(10)).
		Load(isa.Lw, r(2), r(14), 8).
		Jump("step")
	b.Block("opCons").
		OpI(isa.And, r(14), r(7), 1023).
		OpI(isa.Sll, r(14), r(14), 3).
		Op3(isa.Add, r(14), r(14), r(10)).
		Store(isa.Sw, r(2), r(14), 0).
		OpI(isa.Add, r(7), r(7), 2).
		Jump("step")
	b.Block("opCall").
		Call("builtin")
	b.Block("afterCall").
		Jump("step")
	b.Block("opNil").
		// Type-check diamond: tag-bit test on the accumulator — a
		// noisy ~50/50 data branch, the if-conversion target.
		OpI(isa.And, r(15), r(2), 1).
		BranchI(isa.Beq, r(15), 0, "isNil")
	b.Block("notNil").
		OpI(isa.Add, r(5), r(5), 1).
		Jump("step")
	b.Block("isNil").
		OpI(isa.Add, r(6), r(6), 1).
		Jump("step")

	b.Block("step").
		OpI(isa.Add, r(1), r(1), 1).
		Branch(isa.Blt, r(1), r(13), "dispatch")
	b.Block("exit").
		Store(isa.Sw, r(2), r(11), 0).
		Store(isa.Sw, r(5), r(11), 8).
		Halt()

	p := prog.NewProgram()
	p.AddFunc(b.Func())

	hb := prog.NewBuilder("builtin")
	hb.Block("body").
		OpI(isa.Xor, r(2), r(2), 0x2A).
		OpI(isa.Sll, r(16), r(2), 1).
		Op3(isa.Add, r(2), r(2), r(16)).
		Ret()
	p.AddFunc(hb.Func())
	p.MustAddRegion(prog.Region{Name: "code", Base: xlispCode, Len: xlispSteps * 8})
	p.MustAddRegion(prog.Region{Name: "heap", Base: xlispHeap, Len: 16384})
	p.MustAddRegion(prog.Region{Name: "out", Base: xlispOut, Len: 64})
	return p
}

func initXlisp(m interp.Memory) error {
	g := lcg{s: 0x715B}
	// Skewed opcode distribution: arithmetic common, calls rarer.
	dist := []int64{0, 0, 0, 1, 1, 2, 2, 3, 4, 4, 6, 6, 6, 5, 0, 1}
	for i := int64(0); i < xlispSteps; i++ {
		op := dist[g.next()%uint64(len(dist))]
		if err := m.WriteWord(xlispCode+8*i, op); err != nil {
			return err
		}
	}
	// Heap cells hold small tagged values.
	for i := int64(0); i < 2048; i++ {
		if err := m.WriteWord(xlispHeap+8*i, int64(g.next()%4096)); err != nil {
			return err
		}
	}
	return nil
}

const (
	grepText = 1 << 17
	grepOut  = 1 << 19
	grepN    = 26000
)

// Grep scans text for a 3-symbol needle: the first-symbol test is
// heavily biased not-taken (likely-reversal territory), the verify
// chain is short and biased, and a periodic case-folding branch
// (every 4th position is upper-case in the synthetic text) exercises
// the cyclic-pattern path of the feedback analysis.
func Grep() Workload {
	return grepProto.workload("grep", initGrep)
}

func buildGrep() *prog.Program {
	b := prog.NewBuilder("main")
	r := isa.R
	b.Block("entry").
		Li(r(9), grepText).
		Li(r(11), grepOut).
		Li(r(13), grepN).
		Li(r(1), 0).
		Li(r(2), 17). // needle[0]
		Li(r(3), 23). // needle[1]
		Li(r(4), 29)  // needle[2]

	b.Block("loop").
		OpI(isa.Sll, r(12), r(1), 3).
		Op3(isa.Add, r(12), r(12), r(9)).
		Load(isa.Lw, r(5), r(12), 0) // c = text[i]

	// Periodic case-fold: every 4th position carries the upper-case
	// bit (set by the input generator), cleared before comparing.
	b.Block("fold").
		OpI(isa.And, r(14), r(5), 256).
		BranchI(isa.Beq, r(14), 0, "cmp0")
	b.Block("lower").
		OpI(isa.And, r(5), r(5), 255)

	b.Block("cmp0").
		Branch(isa.Bne, r(5), r(2), "next") // ~96% not equal
	b.Block("cmp1").
		Load(isa.Lw, r(6), r(12), 8).
		OpI(isa.And, r(6), r(6), 255).
		Branch(isa.Bne, r(6), r(3), "next")
	b.Block("cmp2").
		Load(isa.Lw, r(6), r(12), 16).
		OpI(isa.And, r(6), r(6), 255).
		Branch(isa.Bne, r(6), r(4), "next")
	b.Block("match").
		OpI(isa.Add, r(8), r(8), 1)

	b.Block("next").
		OpI(isa.Add, r(1), r(1), 1).
		Branch(isa.Blt, r(1), r(13), "loop")
	b.Block("exit").
		Store(isa.Sw, r(8), r(11), 0).
		Halt()

	p := prog.NewProgram()
	p.AddFunc(b.Func())
	p.MustAddRegion(prog.Region{Name: "text", Base: grepText, Len: (grepN + 16) * 8})
	p.MustAddRegion(prog.Region{Name: "out", Base: grepOut, Len: 64})
	return p
}

func initGrep(m interp.Memory) error {
	g := lcg{s: 0x62E9}
	for i := int64(0); i < grepN+8; i++ {
		c := int64(g.next() % 43) // alphabet overlapping the needle bytes
		if i%4 == 0 {
			c |= 256 // periodic upper-case bit
		}
		// Plant needles at a low rate.
		if g.next()%97 == 0 {
			c = 17
			_ = m.WriteWord(grepText+8*(i+1), 23)
			_ = m.WriteWord(grepText+8*(i+2), 29)
			if err := m.WriteWord(grepText+8*i, c); err != nil {
				return err
			}
			i += 2
			continue
		}
		if err := m.WriteWord(grepText+8*i, c); err != nil {
			return err
		}
	}
	return nil
}
