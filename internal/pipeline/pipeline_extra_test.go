package pipeline

import (
	"strings"
	"testing"

	"specguard/internal/isa"
	"specguard/internal/machine"
	"specguard/internal/predict"
)

func TestFPQueueAndUnitsExercised(t *testing.T) {
	src := `
func main:
entry:
	li r1, 0
	li r9, 9000
loop:
	lf f1, 0(r9)
	lf f2, 8(r9)
	fadd f3, f1, f2
	fmul f4, f3, f2
	fdiv f5, f4, f3
	fsub f6, f5, f1
	fmov f7, f6
	sf f7, 16(r9)
	add r1, r1, 1
	blt r1, 200, loop
exit:
	halt
`
	s := simulate(t, src, twoBit(), nil)
	if s.UnitBusy[isa.UnitFPAdd] == 0 || s.UnitBusy[isa.UnitFPMul] == 0 || s.UnitBusy[isa.UnitFPDiv] == 0 {
		t.Errorf("FP units unused: %+v", s.UnitBusy)
	}
	if s.MeanQueueOccupancy(QFP) <= 0 {
		t.Error("FP queue never occupied")
	}
	if s.Committed != 200*10+3 {
		t.Errorf("committed = %d", s.Committed)
	}
}

func TestFPDependencyLatency(t *testing.T) {
	// A serial FP-add chain runs at 1 op / 3 cycles: IPC ≈ 1/3 of the
	// chain portion.
	var sb strings.Builder
	sb.WriteString("func main:\nB0:\n")
	for i := 0; i < 300; i++ {
		sb.WriteString("\tfadd f1, f1, f2\n")
	}
	sb.WriteString("\thalt\n")
	s := simulate(t, sb.String(), twoBit(), func(c *Config) { c.DisableICache = true })
	ipc := s.IPC()
	if ipc > 0.36 || ipc < 0.30 {
		t.Errorf("serial fadd chain IPC = %.3f, want ≈1/3", ipc)
	}
}

func TestRenamePressureStallsDispatch(t *testing.T) {
	// With zero rename registers, every def-bearing instruction must
	// wait for the previous one to commit: throughput collapses but
	// the program still completes correctly.
	src := `
func main:
B0:
	li r1, 0
loop:
	add r2, r1, 1
	add r3, r1, 2
	add r1, r1, 1
	blt r1, 100, loop
exit:
	halt
`
	normal := simulate(t, src, twoBit(), nil)
	starved := simulate(t, src, twoBit(), func(c *Config) {
		m := machine.R10000()
		m.RenameRegs = 1
		c.Model = m
	})
	if starved.Committed != normal.Committed {
		t.Fatalf("committed differs: %d vs %d", starved.Committed, normal.Committed)
	}
	if starved.Cycles <= normal.Cycles {
		t.Errorf("rename starvation must cost cycles: %d vs %d", starved.Cycles, normal.Cycles)
	}
}

func TestActiveListBoundsInFlight(t *testing.T) {
	// A deep ROB helps a long-latency shadow: with ActiveList=4 the
	// window can't cover a D-cache miss; with 32 it can.
	src := `
func main:
entry:
	li r1, 0
	li r9, 0
loop:
	lw r3, 0(r9)
	add r9, r9, 512
	li r4, 1
	li r5, 2
	li r6, 3
	li r7, 4
	add r1, r1, 1
	blt r1, 500, loop
exit:
	halt
`
	narrow := simulate(t, src, twoBit(), func(c *Config) {
		m := machine.R10000()
		m.ActiveList = 4
		c.Model = m
	})
	wide := simulate(t, src, twoBit(), nil)
	if wide.Cycles >= narrow.Cycles {
		t.Errorf("deeper active list must help: wide=%d narrow=%d", wide.Cycles, narrow.Cycles)
	}
}

func TestGShareIntegratesWithPipeline(t *testing.T) {
	// The periodic branch (TTF on the loop counter) defeats 2-bit but
	// not gshare.
	src := `
func main:
entry:
	li r1, 0
	li r4, 0
loop:
	slt r2, r4, 2
	beq r2, 0, skip
body:
	add r3, r3, 1
skip:
	add r4, r4, 1
	slt r5, r4, 3
	bne r5, 0, keep
wrap:
	li r4, 0
keep:
	add r1, r1, 1
	blt r1, 900, loop
exit:
	halt
`
	twoBitStats := simulate(t, src, predict.NewTwoBit(512), nil)
	gshareStats := simulate(t, src, predict.NewGShare(512, 8), nil)
	if gshareStats.Mispredicts >= twoBitStats.Mispredicts/2 {
		t.Errorf("gshare should crush the cyclic pattern: 2bit=%d gshare=%d",
			twoBitStats.Mispredicts, gshareStats.Mispredicts)
	}
	if gshareStats.Cycles >= twoBitStats.Cycles {
		t.Errorf("gshare should be faster here: %d vs %d", gshareStats.Cycles, twoBitStats.Cycles)
	}
}

func TestWatchdogReportsDeadlock(t *testing.T) {
	// A source that never ends and never yields instructions the
	// pipeline can finish is impossible by construction (the trace is
	// committed-path), so exercise the watchdog plumbing directly with
	// a tiny threshold and a long store-load chain that CAN progress:
	// it must NOT fire spuriously.
	src := `
func main:
B0:
	li r1, 0
loop:
	add r1, r1, 1
	blt r1, 2000, loop
exit:
	halt
`
	s := simulate(t, src, twoBit(), func(c *Config) { c.Watchdog = 50 })
	if s.Committed == 0 {
		t.Fatal("program did not run")
	}
}

func TestAnnulledMemOpSkipsDCache(t *testing.T) {
	// A guarded load whose predicate is always false must not touch
	// the D-cache.
	src := `
func main:
B0:
	li r1, 1
	pne p1, r1, 1
	(p1) lw r2, 0(r1)
	halt
`
	s := simulate(t, src, twoBit(), nil)
	if s.DCacheMisses != 0 {
		t.Errorf("annulled load accessed the cache: %d misses", s.DCacheMisses)
	}
	if s.Annulled != 1 {
		t.Errorf("annulled = %d", s.Annulled)
	}
}

func TestStoreToLoadOrdering(t *testing.T) {
	// A load must wait for the completion of an earlier store to the
	// same word: the dependent chain through memory serializes.
	src := `
func main:
B0:
	li r1, 9000
	li r2, 1
	li r3, 0
loop:
	sw r2, 0(r1)
	lw r4, 0(r1)
	add r2, r4, 1
	add r3, r3, 1
	blt r3, 300, loop
exit:
	halt
`
	s := simulate(t, src, predict.NewPerfect(), nil)
	// Each iteration's sw→lw→add chain is ≥ 2+2+1 cycles; anything
	// under 4 cycles/iteration would mean the ordering was violated.
	perIter := float64(s.Cycles) / 300
	if perIter < 4 {
		t.Errorf("%.2f cycles/iteration: store→load ordering too fast to be real", perIter)
	}
}

func TestPerSiteMispredictTracking(t *testing.T) {
	s := simulate(t, alternatingLoop, twoBit(), func(c *Config) { c.TrackBranchSites = true })
	if len(s.SiteMispredicts) == 0 {
		t.Fatal("no sites tracked")
	}
	var total int64
	for site, n := range s.SiteMispredicts {
		if n <= 0 {
			t.Errorf("site %s has %d mispredicts", site, n)
		}
		total += n
	}
	if total != s.Mispredicts {
		t.Errorf("per-site sum %d != total %d", total, s.Mispredicts)
	}
	if s.SiteMispredicts["main.loop"] < 200 {
		t.Errorf("alternating branch should dominate: %v", s.SiteMispredicts)
	}
	// Off by default.
	off := simulate(t, alternatingLoop, twoBit(), nil)
	if off.SiteMispredicts != nil {
		t.Error("tracking must be opt-in")
	}
}
