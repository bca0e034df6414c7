// Command sgsweep explores the machine design space: it expands an
// axis grid over the paper's R10000 model, times every (point,
// workload) cell through the batched harness (cells sharing an icache
// geometry share trace drains), and prints the Pareto frontier of
// harmonic-mean IPC against a hardware-cost proxy.
//
// Usage:
//
//	sgsweep [-axes "fetch_width=2,4,8;active_list=16,32,64"]
//	        [-predictors 2bit,gshare] [-workloads grep,compress]
//	        [-scheme 2bit] [-max-points N] [-par N]
//	        [-all] [-json FILE] [-version]
//
// The -axes grammar is semicolon-separated axis=value,value,...
// clauses; axis names are machine.AxisNames. -predictors is sugar for
// the "predictor" axis with family names instead of enum values.
// -all prints every point (grid order) after the frontier table.
// -json writes the full report (every point, frontier indices, drain
// accounting) for downstream analysis; BENCH_explore.json in the repo
// root is a committed example (see scripts/explore_smoke.sh).
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"specguard/internal/bench"
	"specguard/internal/buildinfo"
	"specguard/internal/explore"
	"specguard/internal/machine"
	"specguard/internal/serve"
)

func main() {
	axesFlag := flag.String("axes", "fetch_width=2,4,8;active_list=16,32,64", "grid: axis=v1,v2,...;axis=... (axes: "+strings.Join(machine.AxisNames(), ", ")+")")
	predictors := flag.String("predictors", "", "comma-separated predictor families to sweep (2bit, gshare, perfect)")
	workloads := flag.String("workloads", "", "comma-separated workload subset (default all)")
	scheme := flag.String("scheme", "2bit", "program/predictor scheme: 2-bitBP, Proposed or PerfectBP")
	maxPoints := flag.Int("max-points", explore.DefaultMaxPoints, "refuse grids larger than this")
	par := flag.Int("par", 0, "lane-scheduler workers (0 = GOMAXPROCS, 1 = serial)")
	all := flag.Bool("all", false, "print every grid point after the frontier table")
	jsonPath := flag.String("json", "", "write the full report as JSON to this file")
	version := flag.Bool("version", false, "print version and exit")
	flag.Parse()

	if *version {
		fmt.Println(buildinfo.Version("sgsweep"))
		return
	}
	if err := run(*axesFlag, *predictors, *workloads, *scheme, *maxPoints, *par, *all, *jsonPath); err != nil {
		fmt.Fprintln(os.Stderr, "sgsweep:", err)
		os.Exit(1)
	}
}

// parseAxes parses the -axes grammar into machine.Axis values,
// rejecting unknown names early so the error points at the flag, not
// the expansion.
func parseAxes(s string) ([]machine.Axis, error) {
	var axes []machine.Axis
	for _, clause := range strings.Split(s, ";") {
		clause = strings.TrimSpace(clause)
		if clause == "" {
			continue
		}
		name, vals, ok := strings.Cut(clause, "=")
		if !ok {
			return nil, fmt.Errorf("-axes clause %q is not axis=v1,v2,...", clause)
		}
		name = strings.TrimSpace(name)
		ax := machine.Axis{Name: name}
		for _, v := range strings.Split(vals, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(v))
			if err != nil {
				return nil, fmt.Errorf("-axes %s: %w", name, err)
			}
			ax.Values = append(ax.Values, n)
		}
		// Apply on a throwaway model fails only for unknown names; value
		// legality is checked per point during expansion.
		if err := machine.Apply(machine.R10000(), name, ax.Values[0]); err != nil {
			return nil, err
		}
		axes = append(axes, ax)
	}
	return axes, nil
}

// parsePredictors turns "-predictors 2bit,gshare" into the predictor
// axis.
func parsePredictors(s string) (machine.Axis, error) {
	ax := machine.Axis{Name: "predictor"}
	for _, name := range strings.Split(s, ",") {
		pk, err := machine.ParsePredKind(strings.TrimSpace(name))
		if err != nil {
			return ax, err
		}
		ax.Values = append(ax.Values, int(pk))
	}
	return ax, nil
}

// jsonReport is the -json schema: the sweep reduced to the numbers
// downstream analysis needs (full pipeline.Stats per cell would be
// megabytes at 256 points; /v1/explore streams them when wanted).
type jsonReport struct {
	Comment    string         `json:"comment"`
	GOMAXPROCS int            `json:"gomaxprocs"`
	Axes       []machine.Axis `json:"axes"`
	Scheme     string         `json:"scheme"`
	Workloads  []string       `json:"workloads"`
	WallMS     int64          `json:"wall_ms"`
	Points     []jsonPoint    `json:"points"`
	// Frontier indexes Points ascending by cost.
	Frontier      []int   `json:"frontier"`
	Cells         int     `json:"cells"`
	TraceDrains   int64   `json:"trace_drains"`
	SimLanes      int64   `json:"sim_lanes"`
	ArchRuns      int64   `json:"arch_runs"`
	LanesPerDrain float64 `json:"lanes_per_drain"`
	// Quiescence fast-forward engagement (see explore.Report): cycles
	// elided, jumps taken, and their share of the sweep's simulated
	// cycles. Stats are byte-identical with skipping on or off.
	SkippedCycles int64   `json:"skipped_cycles"`
	FastForwards  int64   `json:"fast_forwards"`
	SkipRate      float64 `json:"skip_rate"`
}

type jsonPoint struct {
	Coords []machine.Coord `json:"coords"`
	Cost   int64           `json:"cost"`
	IPC    float64         `json:"ipc"`
	Pareto bool            `json:"pareto"`
	Cells  []jsonCell      `json:"cells"`
}

type jsonCell struct {
	Workload    string  `json:"workload"`
	IPC         float64 `json:"ipc"`
	Cycles      int64   `json:"cycles"`
	Committed   int64   `json:"committed"`
	Mispredicts int64   `json:"mispredicts"`
}

func run(axesFlag, predictors, workloadsFlag, schemeFlag string, maxPoints, par int, all bool, jsonPath string) error {
	axes, err := parseAxes(axesFlag)
	if err != nil {
		return err
	}
	if predictors != "" {
		ax, err := parsePredictors(predictors)
		if err != nil {
			return err
		}
		axes = append(axes, ax)
	}
	scheme, err := serve.ParseScheme(schemeFlag)
	if err != nil {
		return err
	}
	var wls []bench.Workload
	if workloadsFlag != "" {
		for _, name := range strings.Split(workloadsFlag, ",") {
			w, err := bench.ByName(strings.TrimSpace(name))
			if err != nil {
				return err
			}
			wls = append(wls, w)
		}
	}

	r := bench.NewRunner()
	r.Parallelism = par
	req := explore.Request{Axes: axes, Workloads: wls, Scheme: scheme, MaxPoints: maxPoints}
	start := time.Now()
	rep, err := explore.Run(context.Background(), r, req)
	if err != nil {
		return err
	}
	wall := time.Since(start)

	fmt.Print(explore.FormatReport(rep))
	if all {
		fmt.Printf("\nAll %d points (grid order; * = Pareto):\n", len(rep.Points))
		fmt.Printf("%8s %8s   %s\n", "Cost", "IPC", "Configuration")
		for i := range rep.Points {
			p := &rep.Points[i]
			mark := " "
			if p.Pareto {
				mark = "*"
			}
			fmt.Printf("%8d %8.4f %s %s\n", p.Cost, p.IPC, mark, p.Label())
		}
	}

	if jsonPath != "" {
		out := jsonReport{
			Comment: "Design-space sweep: IPC (harmonic mean over the listed workloads) vs. a " +
				"hardware-cost proxy (queue+ROB entries, 2x rename registers, 2 bits per predictor " +
				"counter plus gshare's history bits; the perfect oracle carries no storage). frontier " +
				"indexes the Pareto-optimal points ascending by cost. trace_drains < cells proves the " +
				"geometry-grouped batching; sim_lanes < cells counts the cells that shared a lane " +
				"because a workload cannot tell their machines apart. Regenerate with the sgsweep " +
				"invocation in README.md.",
			GOMAXPROCS:    runtime.GOMAXPROCS(0),
			Axes:          axes,
			Scheme:        rep.Scheme,
			Workloads:     rep.Workloads,
			WallMS:        wall.Milliseconds(),
			Frontier:      rep.Frontier,
			Cells:         rep.Cells,
			TraceDrains:   rep.TraceDrains,
			SimLanes:      rep.SimLanes,
			ArchRuns:      rep.ArchRuns,
			LanesPerDrain: rep.LanesPerDrain,
			SkippedCycles: rep.SkippedCycles,
			FastForwards:  rep.FastForwards,
			SkipRate:      rep.SkipRate,
		}
		for i := range rep.Points {
			p := &rep.Points[i]
			jp := jsonPoint{Coords: p.Coords, Cost: p.Cost, IPC: p.IPC, Pareto: p.Pareto}
			for _, c := range p.Cells {
				jp.Cells = append(jp.Cells, jsonCell{
					Workload:    c.Workload,
					IPC:         c.IPC,
					Cycles:      c.Stats.Cycles,
					Committed:   c.Stats.Committed,
					Mispredicts: c.Stats.Mispredicts,
				})
			}
			out.Points = append(out.Points, jp)
		}
		f, err := os.Create(jsonPath)
		if err != nil {
			return err
		}
		enc := json.NewEncoder(f)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "sgsweep: wrote %s (%d points, %d cells, %d drains)\n",
			jsonPath, len(rep.Points), rep.Cells, rep.TraceDrains)
	}
	return nil
}
