// Package explore is the design-space sweep engine: it expands an axis
// grid over the machine model (internal/machine.Expand), fans every
// (point, workload) cell through the batched bench runner — cells with
// one icache geometry share trace drains — and reduces the results to
// per-point IPC, a hardware-cost proxy and the Pareto frontier of the
// two. It turns the paper's single fixed R10000 evaluation into the
// instrument the ROADMAP's design-space item asks for: which
// speculation/guarding conclusions survive on a narrower, deeper,
// better- or worse-predicted machine.
package explore

import (
	"context"
	"fmt"
	"sort"

	"specguard/internal/bench"
	"specguard/internal/machine"
	"specguard/internal/pipeline"
)

// Request describes one sweep: a base model, the axes to vary, the
// workloads to time each point on and the scheme to run.
type Request struct {
	// Base is the model every point derives from; nil means the paper's
	// R10000.
	Base *machine.Model
	// Axes expand into the cartesian grid (machine.Expand).
	Axes []machine.Axis
	// Workloads defaults to the full registry when empty.
	Workloads []bench.Workload
	// Scheme is the program/predictor configuration each cell runs
	// (default SchemeTwoBit; SchemePerfect overrides every point's
	// predictor family with the oracle).
	Scheme bench.Scheme
	// MaxPoints rejects grids larger than this before any simulation
	// (0 = DefaultMaxPoints). It bounds the damage of a fat-fingered or
	// hostile axis spec: a 10^6-cell grid is a denial of service, not a
	// sweep.
	MaxPoints int
}

// DefaultMaxPoints bounds the grid size when Request.MaxPoints is 0.
const DefaultMaxPoints = 4096

// Cell is one (point, workload) timing simulation.
type Cell struct {
	Workload string         `json:"workload"`
	IPC      float64        `json:"ipc"`
	Stats    pipeline.Stats `json:"stats"`
}

// Point is one grid cell's reduced result: the coordinates that
// produced its model, the cost proxy, per-workload cells and the
// harmonic-mean IPC over them.
type Point struct {
	Coords   []machine.Coord `json:"coords"`
	ModelKey string          `json:"model_key"`
	Cost     int64           `json:"cost"`
	IPC      float64         `json:"ipc"`
	Pareto   bool            `json:"pareto"`
	Cells    []Cell          `json:"cells"`
}

// Label renders the point's coordinates for report tables.
func (p *Point) Label() string {
	return machine.Point{Coords: p.Coords}.CoordLabel()
}

// Report is a completed sweep.
type Report struct {
	Scheme    string   `json:"scheme"`
	Workloads []string `json:"workloads"`
	Points    []Point  `json:"points"`
	// Frontier holds the indices into Points of the Pareto-optimal
	// cells, in ascending cost order.
	Frontier []int `json:"frontier"`

	// Batching economics of this sweep (deltas on the runner's
	// counters): Cells = len(Points)×len(Workloads) cells served by
	// SimLanes timing simulations on TraceDrains drains, each one live
	// run of a program; ArchRuns counts the machines built to run them
	// (drains reuse idle ones, so a warm runner builds none). Cells
	// whose machines a program cannot tell apart (bench.RunSpecs) share
	// a lane. LanesPerDrain ≥ 1 is the amortization batching buys.
	Cells         int     `json:"cells"`
	TraceDrains   int64   `json:"trace_drains"`
	SimLanes      int64   `json:"sim_lanes"`
	ArchRuns      int64   `json:"arch_runs"`
	LanesPerDrain float64 `json:"lanes_per_drain"`

	// Quiescence fast-forward engagement across the sweep (deltas on
	// the runner's counters): SkippedCycles simulated cycles were elided
	// in FastForwards jumps, and SkipRate is their share of the cycles
	// of the SimLanes simulations that ran (bench.Runner.SimCycles), not
	// of every cell's: a cell served by a shared lane simulated nothing.
	// Stats stay byte-identical either way; these only report how much
	// dead time the sweep did not grind through cycle by cycle.
	SkippedCycles int64   `json:"skipped_cycles"`
	FastForwards  int64   `json:"fast_forwards"`
	SkipRate      float64 `json:"skip_rate"`
}

// Cost is the hardware-cost proxy a point is judged against: total
// dispatch-queue entries (including the branch stack), reorder-buffer
// depth, rename registers in both files, and predictor storage bits
// (two bits per counter for the table families, plus gshare's history
// register; a 2-bit table has no history register and the perfect
// oracle carries no storage). It is a relative area stand-in, not a
// gate count — the frontier only needs an ordering that grows with the
// structures the axes vary.
func Cost(m *machine.Model) int64 {
	cost := m.IntQueue + m.AddrQueue + m.FPQueue + m.BranchStack
	cost += m.ActiveList
	cost += 2 * m.RenameRegs // integer + FP rename files
	if m.Predictor != machine.PredPerfect {
		cost += 2 * m.PredictorEntries
	}
	if m.Predictor == machine.PredGShare {
		cost += m.HistoryBits
	}
	return int64(cost)
}

// expand applies the grid-size guard and expands the request's axes
// over its base model.
func expand(req Request) ([]machine.Point, error) {
	base := req.Base
	if base == nil {
		base = machine.R10000()
	}
	limit := req.MaxPoints
	if limit <= 0 {
		limit = DefaultMaxPoints
	}
	size := 1
	for _, ax := range req.Axes {
		if len(ax.Values) == 0 {
			return nil, fmt.Errorf("explore: axis %q has no values", ax.Name)
		}
		if size *= len(ax.Values); size > limit {
			return nil, fmt.Errorf("explore: grid has over %d points (limit %d)", size, limit)
		}
	}
	return machine.Expand(base, req.Axes)
}

// Precheck validates the request's grid without simulating anything:
// the serve layer calls it before committing a worker slot, so a bad
// axis, an invalid cell or an oversized grid is a 400 to the client
// rather than a wasted pool job.
func Precheck(req Request) error {
	_, err := expand(req)
	return err
}

// Run expands the grid and simulates every (point, workload) cell
// through the batched runner. Cells are grouped by (workload, program,
// icache geometry) inside bench.RunSpecs, so the whole sweep costs one
// drain per group (capped at pipeline.MaxBatchLanes lanes each), not
// one per cell.
func Run(ctx context.Context, r *bench.Runner, req Request) (*Report, error) {
	points, err := expand(req)
	if err != nil {
		return nil, err
	}
	workloads := req.Workloads
	if len(workloads) == 0 {
		workloads = bench.All()
	}

	specs := make([]bench.Spec, 0, len(points)*len(workloads))
	for _, pt := range points {
		for _, w := range workloads {
			specs = append(specs, bench.Spec{Workload: w, Scheme: req.Scheme, Model: pt.Model})
		}
	}

	drains0, lanes0, arch0 := r.TraceDrains(), r.SimLanes(), r.ArchRuns()
	skipped0, jumps0, cycles0 := r.SkippedCycles(), r.FastForwards(), r.SimCycles()
	results, err := r.RunSpecs(ctx, specs)
	if err != nil {
		return nil, err
	}

	rep := &Report{
		Scheme: req.Scheme.String(),
		Points: make([]Point, len(points)),
		Cells:  len(specs),
	}
	for _, w := range workloads {
		rep.Workloads = append(rep.Workloads, w.Name)
	}
	for i, pt := range points {
		p := &rep.Points[i]
		p.Coords = pt.Coords
		p.ModelKey = pt.Model.Key()
		p.Cost = Cost(pt.Model)
		p.Cells = make([]Cell, len(workloads))
		for j := range workloads {
			res := results[i*len(workloads)+j]
			ipc := 0.0
			if res.Stats.Cycles > 0 {
				ipc = float64(res.Stats.Committed) / float64(res.Stats.Cycles)
			}
			p.Cells[j] = Cell{Workload: res.Workload, IPC: ipc, Stats: res.Stats}
		}
		p.IPC = harmonicMeanIPC(p.Cells)
	}
	rep.Frontier = frontier(rep.Points)
	for _, i := range rep.Frontier {
		rep.Points[i].Pareto = true
	}

	rep.TraceDrains = r.TraceDrains() - drains0
	rep.SimLanes = r.SimLanes() - lanes0
	rep.ArchRuns = r.ArchRuns() - arch0
	if rep.TraceDrains > 0 {
		rep.LanesPerDrain = float64(rep.SimLanes) / float64(rep.TraceDrains)
	}
	rep.SkippedCycles = r.SkippedCycles() - skipped0
	rep.FastForwards = r.FastForwards() - jumps0
	if simulated := r.SimCycles() - cycles0; simulated > 0 {
		rep.SkipRate = float64(rep.SkippedCycles) / float64(simulated)
	}
	return rep, nil
}

// harmonicMeanIPC aggregates per-workload IPCs the way total runtime
// would: the harmonic mean weights every workload's instruction equally
// expensive, so a point cannot buy frontier rank by demolishing one
// easy workload.
func harmonicMeanIPC(cells []Cell) float64 {
	if len(cells) == 0 {
		return 0
	}
	sum := 0.0
	for _, c := range cells {
		if c.IPC <= 0 {
			return 0
		}
		sum += 1 / c.IPC
	}
	return float64(len(cells)) / sum
}

// frontier returns the indices of the Pareto-optimal points (maximize
// IPC, minimize Cost), ascending by cost. A point is dominated when
// some other point has cost ≤ its cost and IPC ≥ its IPC with at least
// one strict; among exact (cost, IPC) ties the earliest grid index
// survives, keeping the output deterministic.
func frontier(points []Point) []int {
	idx := make([]int, len(points))
	for i := range idx {
		idx[i] = i
	}
	// Sort by cost ascending, IPC descending, grid order as tiebreak.
	sort.SliceStable(idx, func(a, b int) bool {
		pa, pb := &points[idx[a]], &points[idx[b]]
		if pa.Cost != pb.Cost {
			return pa.Cost < pb.Cost
		}
		return pa.IPC > pb.IPC
	})
	var out []int
	bestIPC := -1.0
	for _, i := range idx {
		p := &points[i]
		if p.IPC > bestIPC {
			out = append(out, i)
			bestIPC = p.IPC
		}
	}
	return out
}
