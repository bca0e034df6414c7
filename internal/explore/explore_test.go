package explore

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"specguard/internal/bench"
	"specguard/internal/machine"
)

func TestCostProxy(t *testing.T) {
	m := machine.R10000()
	// 16+16+16+4 queue entries + 32 ROB + 2×32 renames + 2×512 counter
	// bits (+0 history).
	want := int64(52 + 32 + 64 + 1024)
	if got := Cost(m); got != want {
		t.Errorf("Cost(R10000) = %d, want %d", got, want)
	}
	g := m.Clone()
	g.Predictor = machine.PredGShare
	g.HistoryBits = 8
	if got := Cost(g); got != want+8 {
		t.Errorf("Cost(gshare+8) = %d, want %d", got, want+8)
	}
	// A 2-bit table has no history register to pay for.
	h := m.Clone()
	h.HistoryBits = 8
	if got := Cost(h); got != want {
		t.Errorf("Cost(2-bit, history_bits=8) = %d, want %d", got, want)
	}
	p := m.Clone()
	p.Predictor = machine.PredPerfect
	if got := Cost(p); got != want-1024 {
		t.Errorf("Cost(perfect) = %d, want %d (oracle carries no storage)", got, want-1024)
	}
}

func TestFrontier(t *testing.T) {
	points := []Point{
		{Cost: 100, IPC: 1.0}, // 0: on the frontier
		{Cost: 200, IPC: 0.9}, // 1: dominated by 0
		{Cost: 200, IPC: 1.5}, // 2: on the frontier
		{Cost: 150, IPC: 1.0}, // 3: dominated by 0 (same IPC, higher cost)
		{Cost: 300, IPC: 1.5}, // 4: dominated by 2
		{Cost: 400, IPC: 2.0}, // 5: on the frontier
		{Cost: 100, IPC: 1.0}, // 6: exact tie with 0 — earliest index wins
	}
	got := frontier(points)
	want := []int{0, 2, 5}
	if len(got) != len(want) {
		t.Fatalf("frontier = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("frontier = %v, want %v", got, want)
		}
	}
}

func TestHarmonicMean(t *testing.T) {
	cells := []Cell{{IPC: 1}, {IPC: 3}}
	if got := harmonicMeanIPC(cells); got != 1.5 {
		t.Errorf("harmonic mean of 1,3 = %g, want 1.5", got)
	}
	if got := harmonicMeanIPC([]Cell{{IPC: 2}, {IPC: 0}}); got != 0 {
		t.Errorf("zero-IPC cell must zero the mean, got %g", got)
	}
	if got := harmonicMeanIPC(nil); got != 0 {
		t.Errorf("empty mean = %g", got)
	}
}

// TestRunSmallGrid drives a 2×2 grid over one workload end to end:
// points reduced, frontier non-empty and well-formed, and the cells
// batched onto fewer drains than simulations. compress's conditional
// branches all sit below pc/4 = 51, so its 64- and 512-entry tables are
// one machine and share a lane per fetch width.
func TestRunSmallGrid(t *testing.T) {
	r := bench.NewRunner()
	rep, err := Run(context.Background(), r, Request{
		Axes: []machine.Axis{
			{Name: "fetch_width", Values: []int{2, 4}},
			{Name: "entries", Values: []int{64, 512}},
		},
		Workloads: bench.All()[:1],
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Points) != 4 || rep.Cells != 4 {
		t.Fatalf("got %d points / %d cells, want 4 / 4", len(rep.Points), rep.Cells)
	}
	if len(rep.Frontier) == 0 {
		t.Fatal("empty Pareto frontier")
	}
	if rep.TraceDrains >= int64(rep.Cells) {
		t.Errorf("TraceDrains = %d, want < %d cells (geometry batching)", rep.TraceDrains, rep.Cells)
	}
	if rep.SimLanes != 2 {
		t.Errorf("SimLanes = %d, want 2", rep.SimLanes)
	}
	if rep.LanesPerDrain < 1 {
		t.Errorf("LanesPerDrain = %g, want ≥ 1", rep.LanesPerDrain)
	}

	var prevCost int64 = -1
	prevIPC := -1.0
	for _, i := range rep.Frontier {
		p := &rep.Points[i]
		if !p.Pareto {
			t.Errorf("frontier point %d not marked Pareto", i)
		}
		if p.Cost <= prevCost || p.IPC <= prevIPC {
			t.Errorf("frontier not strictly improving: cost %d→%d ipc %g→%g", prevCost, p.Cost, prevIPC, p.IPC)
		}
		prevCost, prevIPC = p.Cost, p.IPC
	}
	for _, p := range rep.Points {
		if p.IPC <= 0 {
			t.Errorf("point %s has IPC %g", p.Label(), p.IPC)
		}
		if len(p.Cells) != 1 || p.Cells[0].Stats.Cycles == 0 {
			t.Errorf("point %s cells malformed: %+v", p.Label(), p.Cells)
		}
	}

	// The wider machine at equal predictor must not lose instructions.
	if rep.Points[0].Cells[0].Stats.Committed != rep.Points[3].Cells[0].Stats.Committed {
		t.Error("grid points committed different instruction streams")
	}

	table := FormatReport(rep)
	if !strings.Contains(table, "Pareto frontier") || !strings.Contains(table, "fetch_width=") {
		t.Errorf("report table malformed:\n%s", table)
	}
}

// TestSkipRateCountsSimulatedCycles: SkipRate is the skipped share of
// the cycles that were simulated. Adding a table size grep cannot tell
// from 128 entries doubles the cells but adds no lane, so the rate must
// not move.
func TestSkipRateCountsSimulatedCycles(t *testing.T) {
	sweep := func(entries ...int) *Report {
		rep, err := Run(context.Background(), bench.NewRunner(), Request{
			Axes: []machine.Axis{
				{Name: "fetch_width", Values: []int{2, 4}},
				{Name: "entries", Values: entries},
			},
			Workloads: []bench.Workload{bench.Grep()},
		})
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	one, two := sweep(128), sweep(128, 1024)
	if one.SimLanes != 2 || two.SimLanes != 2 || two.Cells != 4 {
		t.Fatalf("lanes %d and %d for %d and %d cells, want 2 lanes each", one.SimLanes, two.SimLanes, one.Cells, two.Cells)
	}
	if one.SkippedCycles == 0 {
		t.Fatal("no cycles skipped: the test needs a sweep the fast-forward engages on")
	}
	if one.SkipRate != two.SkipRate {
		t.Errorf("SkipRate %g with entries {128}, %g with {128, 1024}", one.SkipRate, two.SkipRate)
	}
}

func TestRunRejectsHugeGrid(t *testing.T) {
	vals := make([]int, 100)
	for i := range vals {
		vals[i] = i + 4
	}
	_, err := Run(context.Background(), bench.NewRunner(), Request{
		Axes: []machine.Axis{
			{Name: "active_list", Values: vals},
			{Name: "int_queue", Values: vals},
		},
		MaxPoints: 64,
	})
	if err == nil || !strings.Contains(err.Error(), "limit") {
		t.Fatalf("oversized grid not rejected: %v", err)
	}
}

func TestRunRejectsBadAxis(t *testing.T) {
	_, err := Run(context.Background(), bench.NewRunner(), Request{
		Axes: []machine.Axis{{Name: "warp_factor", Values: []int{9}}},
	})
	if err == nil {
		t.Fatal("unknown axis not rejected")
	}
	_, err = Run(context.Background(), bench.NewRunner(), Request{
		Axes: []machine.Axis{{Name: "fetch_width", Values: []int{0}}},
	})
	if err == nil {
		t.Fatal("invalid cell not rejected")
	}
}

// sweepGridAxes is a 32-point grid over the timing axes the benchmark's
// sweep-grid workload varies: fetch width, queue and active-list depth,
// table size, predictor family, at fixed penalties and a throttled
// fetch width.
var sweepGridAxes = []machine.Axis{
	{Name: "fetch_width", Values: []int{2, 4}},
	{Name: "int_queue", Values: []int{16, 32}},
	{Name: "active_list", Values: []int{32, 48}},
	{Name: "entries", Values: []int{256, 4096}},
	{Name: "predictor", Values: []int{int(machine.PredTwoBit), int(machine.PredGShare)}},
	{Name: "mispredict_penalty", Values: []int{5}},
	{Name: "miss_penalty", Values: []int{6}},
	{Name: "throttle_width", Values: []int{2}},
}

// TestRunIndependentOfParallelism: a sweep's report is cell for cell
// the same whether its lanes run on one worker or on two (lane-level
// scheduling moves a drain's lanes between workers round by round).
// grep keeps it quick; the full registry is the benchmark's sweep-grid.
func TestRunIndependentOfParallelism(t *testing.T) {
	sweep := func(par int) *Report {
		r := bench.NewRunner()
		r.Parallelism = par
		rep, err := Run(context.Background(), r, Request{Axes: sweepGridAxes, Workloads: []bench.Workload{bench.Grep()}})
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	one, two := sweep(1), sweep(2)
	if len(one.Points) != 32 || len(two.Points) != 32 {
		t.Fatalf("got %d and %d points, want 32", len(one.Points), len(two.Points))
	}
	for i := range one.Points {
		if !reflect.DeepEqual(one.Points[i], two.Points[i]) {
			t.Errorf("point %s differs between W=1 and W=2:\nW=1: %+v\nW=2: %+v", one.Points[i].Label(), one.Points[i], two.Points[i])
		}
	}
}
