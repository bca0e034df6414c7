package main

import (
	"context"
	"fmt"
	"math/rand"
	"path/filepath"
	"reflect"
	"runtime"

	"specguard/internal/bench"
	"specguard/internal/explore"
	"specguard/internal/machine"
)

// gridAxes are the timing-only axes a sweep-grid varies. The seed picks
// one value from each stratum, so every seed's grid has the same shape
// (2^5 = 32 points, three pinned axes) while the exact machines
// simulated, and so the Stats checked, change. The axes that set how
// many cycles a lane simulates (fetch and throttle width) are fixed and
// the drawn values sit close together, so every seed's sweep costs
// about the same: the spread across seeds is the host's, not the grid's.
var gridAxes = []struct {
	name   string
	strata [][]int
}{
	{"fetch_width", [][]int{{2}, {4}}},
	{"int_queue", [][]int{{12, 16}, {24, 32}}},
	{"active_list", [][]int{{24, 32}, {48, 64}}},
	{"entries", [][]int{{128, 256, 512}, {1024, 2048, 4096}}},
	{"predictor", [][]int{{int(machine.PredTwoBit)}, {int(machine.PredGShare)}}},
	{"mispredict_penalty", [][]int{{3, 4, 5}}},
	{"miss_penalty", [][]int{{5, 6, 7}}},
	{"throttle_width", [][]int{{2}}},
}

// drawGrid draws the seed's grid, redrawing until explore.Precheck
// accepts every point.
func drawGrid(seed int64) ([]machine.Axis, error) {
	rng := rand.New(rand.NewSource(seed))
	for try := 0; try < 100; try++ {
		axes := make([]machine.Axis, len(gridAxes))
		for i, ax := range gridAxes {
			axes[i].Name = ax.name
			for _, st := range ax.strata {
				axes[i].Values = append(axes[i].Values, st[rng.Intn(len(st))])
			}
		}
		if explore.Precheck(explore.Request{Axes: axes}) == nil {
			return axes, nil
		}
	}
	return nil, fmt.Errorf("sweep-grid: no valid grid for seed %d", seed)
}

func reportInstrs(rep *explore.Report) int64 {
	var n int64
	for i := range rep.Points {
		for j := range rep.Points[i].Cells {
			n += rep.Points[i].Cells[j].Stats.Committed
		}
	}
	return n
}

// sameCells reports whether two sweeps of one grid produced identical
// Stats in every cell.
func sameCells(a, b *explore.Report) bool {
	if len(a.Points) != len(b.Points) {
		return false
	}
	for i := range a.Points {
		if !reflect.DeepEqual(a.Points[i].Cells, b.Points[i].Cells) {
			return false
		}
	}
	return true
}

// sweepGrid measures one seed-drawn grid swept repeatedly over warm
// traces: batched lanes, no architectural runs, no optimizer calls.
// Set-up captures every profile and original-program trace, as a
// long-running explorer would hold them.
func sweepGrid(env *runEnv) (*result, error) {
	axes, err := drawGrid(env.seed)
	if err != nil {
		return nil, err
	}
	ctx := context.Background()
	r := bench.NewRunner()
	for _, w := range bench.All() {
		if _, err := r.ProfileOf(w); err != nil {
			return nil, err
		}
	}
	req := explore.Request{Axes: axes}
	res := &result{}
	if !env.setupDone() {
		return res, nil
	}

	var first *explore.Report // checkSingleLane vouches for it; later sweeps must equal it
	sweep := func(tr *tracer, id int) (opSample, *explore.Report, error) {
		var rep *explore.Report
		s, err := timeOp(func() (int64, error) {
			sp := tr.begin("explore.Run", -1, id)
			defer tr.end(sp)
			var err error
			if rep, err = explore.Run(ctx, r, req); err != nil {
				return 0, err
			}
			return reportInstrs(rep), nil
		})
		switch {
		case err != nil:
		case first == nil:
			first = rep
		case !sameCells(rep, first):
			err = fmt.Errorf("sweep-grid: Stats differ from the first sweep's")
		}
		res.check(err)
		return s, rep, err
	}

	// A traced run alternates plain sweeps with sweeps under a span, all
	// under the CPU profiler, which buckets the batched timing core by
	// stage.
	var tr *tracer
	stop := func() error { return nil }
	minOps := 6
	if env.trace {
		tr, minOps = newTracer(), 2
		if stop, err = cpuProfile(env.traceDir); err != nil {
			return nil, err
		}
	}
	// An untraced run samples the host's speed before and after every
	// sweep, three kernels at a time: a sweep takes seconds.
	var host *hostRef
	if tr == nil {
		host = &hostRef{}
	}
	host.sample(3)
	var ops, tracedOps []opSample
	for env.more(len(ops), minOps) {
		if s, _, err := sweep(nil, 0); err == nil {
			ops = append(ops, s)
		}
		host.sample(3)
		if tr != nil {
			if s, _, err := sweep(tr, len(tracedOps)+1); err == nil {
				tracedOps = append(tracedOps, s)
			}
		}
	}
	if err := stop(); err != nil {
		return nil, err
	}
	if first == nil || len(ops) == 0 || (tr != nil && len(tracedOps) == 0) {
		return nil, fmt.Errorf("sweep-grid: no sweep completed: %v", res.errors)
	}
	if err := checkSingleLane(ctx, env.seed, axes, first, res); err != nil {
		return nil, err
	}
	if tr == nil {
		res.metrics, res.host = closedMetrics(ops, host), host
		res.extra = map[string]any{"grid": axes, "cells": first.Cells, "skip_rate": first.SkipRate, "op_ms": wallMS(ops), "host_ref": host.report()}
		return res, nil
	}
	m, err := sweepLayers(env.traceDir, first, ops, tracedOps, tr)
	if err != nil {
		return nil, err
	}
	res.metrics = m
	res.extra = map[string]any{"grid": axes}
	return res, writeChromeTrace(filepath.Join(env.traceDir, "trace.json"), tr.spans)
}

// checkSingleLane re-runs eight seed-sampled cells of a sweep through
// the single-lane RunSpec path on a fresh Runner; each must equal its
// batched lane.
func checkSingleLane(ctx context.Context, seed int64, axes []machine.Axis, rep *explore.Report, res *result) error {
	points, err := machine.Expand(machine.R10000(), axes)
	if err != nil {
		return err
	}
	r := bench.NewRunner()
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	ws := bench.All()
	for k := 0; k < 8; k++ {
		i, j := rng.Intn(len(points)), rng.Intn(len(ws))
		single, err := r.RunSpec(ctx, bench.Spec{Workload: ws[j], Scheme: bench.SchemeTwoBit, Model: points[i].Model})
		if err == nil && !reflect.DeepEqual(single.Stats, rep.Points[i].Cells[j].Stats) {
			err = fmt.Errorf("sweep-grid: point %d (%s) %s: single-lane Stats differ from the batched lane", i, points[i].CoordLabel(), ws[j].Name)
		}
		res.check(err)
	}
	return nil
}

// sweepLayers derives the traced sweep-grid run's per-layer metrics.
func sweepLayers(dir string, rep *explore.Report, plain, traced []opSample, tr *tracer) (layerMetrics, error) {
	m := newLayerMetrics()
	batchCPU, err := profileLayers(m, dir)
	if err != nil {
		return nil, err
	}
	traces, err := workloadTraces(false)
	if err != nil {
		return nil, err
	}
	plainM, tracedM := closedMetrics(plain, nil), closedMetrics(traced, nil)
	plainS, tracedS := plainM["latency_ms"].Value, tracedM["latency_ms"].Value
	self, _ := selfTimes(tr.spans)
	var tracedWall float64
	for _, s := range traced {
		tracedWall += s.wall.Seconds()
	}
	if err := replayTrace(m, traces); err != nil {
		return nil, err
	}
	sweeps := int64(len(plain) + len(traced))
	m.set("trace.captures", float64(rep.ArchRuns))
	m.set("pipeline.lane_minstr_per_s", ratio(float64(reportInstrs(rep)*sweeps), batchCPU.Seconds())/1e6)
	m.set("pipeline.skip_rate", rep.SkipRate)
	m.set("bench.trace_drains", float64(rep.TraceDrains))
	m.set("bench.lanes_per_drain", rep.LanesPerDrain)
	m.set("bench.par_efficiency", ratio(plainM["cpu_ms_per_op"].Value, plainS*float64(runtime.GOMAXPROCS(0))))
	m.set("tracing.overhead_pct", 100*ratio(tracedS-plainS, plainS))
	m.set("tracing.reconcile_pct", 100*ratio(self["explore.Run"].Seconds(), tracedWall))
	return m, nil
}
