package pipeline

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"specguard/internal/asm"
	"specguard/internal/interp"
	"specguard/internal/isa"
	"specguard/internal/machine"
	"specguard/internal/predict"
)

// tripKernel is batchKernel with its trip count set, so drains of
// uneven length come from one shape.
func tripKernel(trips int) string {
	return strings.Replace(batchKernel, "blt r1, 4000, loop", fmt.Sprintf("blt r1, %d, loop", trips), 1)
}

// schedDrain is one drain of the scheduler tests: a fresh source and a
// fresh set of lane configs per call, so every run starts cold.
type schedDrain struct {
	src  func(t testing.TB) Source
	cfgs func() []Config
}

func kernelSource(trips int) func(testing.TB) Source {
	return func(t testing.TB) Source { return freshSource(t, asm.MustParse(tripKernel(trips))) }
}

// schedDrains mixes lane shapes across drains of uneven length: fetch
// width 2 and 4, throttled fetch, 2-bit tables of several sizes,
// gshare, perfect prediction, per-site mispredict maps, an ideal
// dcache, and leak tracking over a taint source.
func schedDrains() []schedDrain {
	base := machine.R10000()
	narrow := base.Clone()
	narrow.IssueWidth = 2
	throttled := base.Clone()
	throttled.ThrottledFetchWidth = 2
	deep := base.Clone()
	deep.ActiveList = 48
	return []schedDrain{
		{kernelSource(4000), func() []Config {
			tb := predict.NewTwoBitLanes([]int{512, 64})
			return []Config{
				{Model: base, Predictor: tb[0], SelfCheck: true},
				{Model: narrow, Predictor: tb[1], SelfCheck: true},
				{Model: throttled, Predictor: predict.NewTwoBit(256), SelfCheck: true, TrackBranchSites: true},
				{Model: base, Predictor: predict.NewGShare(512, 8), SelfCheck: true},
				{Model: deep, Predictor: predict.NewPerfect(), SelfCheck: true, DisableDCache: true},
			}
		}},
		{kernelSource(300), func() []Config {
			return []Config{
				{Model: narrow, Predictor: predict.NewGShare(256, 6), SelfCheck: true, TrackBranchSites: true},
				{Model: throttled, Predictor: predict.NewTwoBit(128), SelfCheck: true},
			}
		}},
		{func(t testing.TB) Source { return leakSource(t) }, func() []Config {
			return []Config{
				{Model: base, Predictor: predict.NewTwoBit(512), SelfCheck: true, TrackLeaks: true},
				{Model: narrow, Predictor: predict.NewPerfect(), SelfCheck: true, TrackLeaks: true},
				{Model: throttled, Predictor: predict.NewGShare(512, 8), SelfCheck: true, TrackLeaks: true},
			}
		}},
		{kernelSource(1500), func() []Config {
			return []Config{{Model: deep, Predictor: predict.NewTwoBit(32), SelfCheck: true}}
		}},
	}
}

// runSched runs the drains on workers goroutines and returns every
// drain's Stats.
func runSched(t *testing.T, drains []schedDrain, workers int) [][]Stats {
	t.Helper()
	out := make([][]Stats, len(drains))
	ds := make([]Drain, len(drains))
	for i, d := range drains {
		ds[i] = Drain{
			Work: int64(i), // admit in reverse order of declaration
			Open: func() (Source, []Config, error) { return d.src(t), d.cfgs(), nil },
			Done: func(stats []Stats, _ SkipStats) { out[i] = stats },
		}
	}
	if err := RunDrains(context.Background(), ds, workers); err != nil {
		t.Fatalf("RunDrains(W=%d): %v", workers, err)
	}
	return out
}

// TestRunDrainsStatsIndependentOfWorkers: every lane of every drain
// equals a standalone single-lane run of its Config, for any number of
// workers — including more workers than lanes.
func TestRunDrainsStatsIndependentOfWorkers(t *testing.T) {
	drains := schedDrains()
	want := make([][]Stats, len(drains))
	for i, d := range drains {
		for j, cfg := range d.cfgs() {
			p, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			st, err := p.Run(d.src(t))
			if err != nil {
				t.Fatalf("drain %d lane %d single run: %v", i, j, err)
			}
			want[i] = append(want[i], st)
		}
	}
	if want[2][0].SpecSecretAccesses == 0 || want[0][2].SiteMispredicts == nil {
		t.Fatal("lane mix does not exercise leak tracking and per-site mispredicts")
	}
	for _, w := range []int{1, 2, 3, 8} {
		got := runSched(t, drains, w)
		for i := range want {
			for j := range want[i] {
				if !reflect.DeepEqual(got[i][j], want[i][j]) {
					t.Errorf("W=%d drain %d lane %d diverged from its single-lane run:\ngot:  %+v\nwant: %+v", w, i, j, got[i][j], want[i][j])
				}
			}
		}
	}
	// One two-lane drain on eight workers.
	got := runSched(t, drains[1:2], 8)
	if !reflect.DeepEqual(got[0], want[1]) {
		t.Errorf("two lanes on eight workers diverged:\ngot:  %+v\nwant: %+v", got[0], want[1])
	}
}

// waitGoroutines waits for the goroutine count to fall back to base.
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines: %d, want ≤ %d after RunDrains returned", runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}

// longDrains are drains that each take far longer than a prompt abort.
func longDrains(ctx context.Context, t *testing.T, n int, done *atomic.Int32) []Drain {
	ds := make([]Drain, n)
	for i := range ds {
		ds[i] = Drain{
			Work: 1,
			Open: func() (Source, []Config, error) {
				return kernelSource(200000)(t), []Config{
					{Model: machine.R10000(), Predictor: predict.NewTwoBit(512), Context: ctx},
					{Model: machine.R10000(), Predictor: predict.NewPerfect(), Context: ctx},
				}, nil
			},
			Done: func([]Stats, SkipStats) { done.Add(1) },
		}
	}
	return ds
}

// TestRunDrainsLaneError: a lane that fails (here its watchdog trips in
// the first cycles) stops the whole run, long drains included, and
// every worker exits.
func TestRunDrainsLaneError(t *testing.T) {
	base := runtime.NumGoroutine()
	var done atomic.Int32
	for _, w := range []int{1, 2, 4} {
		ds := longDrains(context.Background(), t, 3, &done)
		ds = append(ds, Drain{
			Name: "failing",
			Work: 2, // admitted first
			Open: func() (Source, []Config, error) { return kernelSource(200000)(t), watchdogLanes(), nil },
		})
		err := RunDrains(context.Background(), ds, w)
		if err == nil || !strings.HasPrefix(err.Error(), "failing: pipeline: batch lane 1: pipeline: no commit") {
			t.Fatalf("W=%d: err = %v, want lane 1's watchdog failure", w, err)
		}
		waitGoroutines(t, base)
	}
	if n := done.Load(); n != 0 {
		t.Errorf("%d long drains ran to completion after a lane failed", n)
	}
}

// watchdogLanes are two lanes whose second fails in its first cycles:
// its watchdog trips.
func watchdogLanes() []Config {
	return []Config{
		{Model: machine.R10000(), Predictor: predict.NewTwoBit(512)},
		{Model: machine.R10000(), Predictor: predict.NewTwoBit(512), Watchdog: 1},
	}
}

// TestRunDrainsReleasesLanes: RunDrains returns every lane it builds to
// the lane free list, and every decode window to the window free list,
// whether the call completes, fails on a lane (or on building one) or is
// cancelled, one-lane and multi-lane drains alike, and the next New
// reuses one of the lanes. No drain of a failing or cancelled call
// completes, so no lane or window is reused inside the call: the lanes
// built are the lanes the Opens asked for, and each drain that built
// its lanes took one window. `make test-race` runs it under -race.
func TestRunDrainsReleasesLanes(t *testing.T) {
	long := kernelSource(200000)
	// cancelling is a lane that cancels the call at its first
	// prediction.
	cancelling := func(cancel func()) Config {
		cfg := batchCases(false)[0]
		cfg.Predictor = cancelPredictor{cfg.Predictor, cancel}
		return cfg
	}
	cases := []struct {
		name    string
		drains  func(ctx context.Context, cancel func(), open opener) []Drain
		invalid int32 // configs New rejects: no lane is built for them
		wantErr bool
	}{
		{"complete", func(_ context.Context, _ func(), open opener) []Drain {
			return []Drain{{Open: open(kernelSource(300), batchCases(false))}}
		}, 0, false},
		{"complete-one-lane", func(_ context.Context, _ func(), open opener) []Drain {
			return []Drain{{Open: open(kernelSource(300), batchCases(false)[:1])}}
		}, 0, false},
		{"lane-fails", func(_ context.Context, _ func(), open opener) []Drain {
			return []Drain{{Work: 2, Open: open(long, watchdogLanes())}, {Work: 1, Open: open(long, batchCases(false))}}
		}, 0, true},
		{"new-fails", func(_ context.Context, _ func(), open opener) []Drain {
			return []Drain{{Open: open(kernelSource(300), append(batchCases(false)[:2], Config{}))}}
		}, 1, true},
		{"cancelled", func(_ context.Context, cancel func(), open opener) []Drain {
			return []Drain{
				{Work: 2, Open: open(long, append([]Config{cancelling(cancel)}, batchCases(false)...))},
				{Work: 1, Open: open(long, batchCases(false)[:2])},
			}
		}, 0, true},
		{"cancelled-one-lane", func(ctx context.Context, cancel func(), open opener) []Drain {
			cfg := cancelling(cancel)
			cfg.Context = ctx // a one-lane drain sees the cancel only at its lane's poll
			return []Drain{{Open: open(long, []Config{cfg})}}
		}, 0, true},
	}
	for _, tc := range cases {
		for _, w := range []int{1, 2} {
			DropFreeLanes()
			DropFreeWindows()
			ctx, cancel := context.WithCancel(context.Background())
			var opened, drains atomic.Int32
			open := func(src func(testing.TB) Source, cfgs []Config) func() (Source, []Config, error) {
				return func() (Source, []Config, error) {
					opened.Add(int32(len(cfgs)))
					drains.Add(1)
					return src(t), cfgs, nil
				}
			}
			err := RunDrains(ctx, tc.drains(ctx, cancel, open), w)
			cancel()
			if (err != nil) != tc.wantErr {
				t.Fatalf("%s, W=%d: err = %v, want an error: %v", tc.name, w, err, tc.wantErr)
			}
			built := int(opened.Load() - tc.invalid)
			if n := FreeLanes(); built == 0 || n != built {
				t.Fatalf("%s, W=%d: %d lanes free after a call that built %d", tc.name, w, n, built)
			}
			// A drain with a config New rejects builds no window; the free
			// list keeps at most one window per processor.
			windows := min(int(drains.Load()-tc.invalid), runtime.GOMAXPROCS(0))
			if n := FreeWindows(); n != windows {
				t.Fatalf("%s, W=%d: %d windows free after a call that took %d", tc.name, w, n, windows)
			}
			free := slices.Clone(freeLanes.items)
			p, err := New(batchCases(false)[0])
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Contains(free, p) {
				t.Errorf("%s, W=%d: New built a lane while %d released ones were free", tc.name, w, len(free))
			}
		}
	}
}

// opener makes a Drain's Open over a source and lane configs.
type opener = func(func(testing.TB) Source, []Config) func() (Source, []Config, error)

// cancelPredictor wraps a predictor and cancels a context at every
// prediction.
type cancelPredictor struct {
	predict.Predictor
	cancel func()
}

func (c cancelPredictor) Predict(pc uint64, op isa.Op, taken bool) predict.Outcome {
	c.cancel()
	return c.Predictor.Predict(pc, op, taken)
}

// errSource fails after n events.
type errSource struct {
	Source
	n int
}

func (s *errSource) NextInto(ev *interp.Event) (bool, error) {
	if s.n == 0 {
		return false, errors.New("source broke")
	}
	s.n--
	return s.Source.NextInto(ev)
}

// TestRunDrainsSourceError: a source failure mid-drain surfaces as the
// run's error, prefixed with the drain's name.
func TestRunDrainsSourceError(t *testing.T) {
	base := runtime.NumGoroutine()
	var done atomic.Int32
	ds := append(longDrains(context.Background(), t, 2, &done), Drain{
		Name: "broken",
		Work: 2,
		Open: func() (Source, []Config, error) {
			return &errSource{kernelSource(4000)(t), 5000}, []Config{{Model: machine.R10000(), Predictor: predict.NewTwoBit(512)}}, nil
		},
	})
	if err := RunDrains(context.Background(), ds, 2); err == nil || err.Error() != "broken: source broke" {
		t.Fatalf("err = %v, want the source's failure", err)
	}
	waitGoroutines(t, base)
	if n := done.Load(); n != 0 {
		t.Errorf("%d long drains ran to completion after a source failed", n)
	}
}

// TestRunDrainsCancel: cancelling the Context stops every drain, at
// the lanes' next poll when they carry it (Config.Context) and between
// lane runs when only RunDrains does. The first drain admitted is short
// and cancels when it finishes, while the long ones are running.
func TestRunDrainsCancel(t *testing.T) {
	base := runtime.NumGoroutine()
	for _, laneCtx := range []bool{true, false} {
		for _, w := range []int{1, 2, 4} {
			ctx, cancel := context.WithCancel(context.Background())
			lc := context.Background()
			if laneCtx {
				lc = ctx
			}
			var done atomic.Int32
			ds := append(longDrains(lc, t, 3, &done), Drain{
				Work: 2,
				Open: func() (Source, []Config, error) {
					return kernelSource(100)(t), []Config{{Model: machine.R10000(), Predictor: predict.NewTwoBit(512), Context: lc}}, nil
				},
				Done: func([]Stats, SkipStats) { cancel() },
			})
			err := RunDrains(ctx, ds, w)
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("lane contexts %v, W=%d: err = %v, want context.Canceled in the chain", laneCtx, w, err)
			}
			if n := done.Load(); n != 0 {
				t.Errorf("lane contexts %v, W=%d: %d long drains ran to completion after the cancel", laneCtx, w, n)
			}
			waitGoroutines(t, base)
		}
	}
}

// gaugePredictor wraps a predictor and records how many lanes are
// inside Predict at once, yielding there so overlapping runs show.
type gaugePredictor struct {
	predict.Predictor
	active, peak *atomic.Int32
}

func (g gaugePredictor) Predict(pc uint64, op isa.Op, taken bool) predict.Outcome {
	n := g.active.Add(1)
	for p := g.peak.Load(); n > p && !g.peak.CompareAndSwap(p, n); p = g.peak.Load() {
	}
	runtime.Gosched()
	g.active.Add(-1)
	return g.Predictor.Predict(pc, op, taken)
}

// stackPredictor wraps a predictor and records, at its first
// prediction, whether Pipeline.Run is on the simulating goroutine's
// stack: 1 if it is, 2 if not.
type stackPredictor struct {
	predict.Predictor
	underRun *atomic.Int32
}

func (s stackPredictor) Predict(pc uint64, op isa.Op, taken bool) predict.Outcome {
	if s.underRun.Load() == 0 {
		pcs := make([]uintptr, 64)
		frames := runtime.CallersFrames(pcs[:runtime.Callers(1, pcs)])
		v := int32(2)
		for more := true; more; {
			var f runtime.Frame
			f, more = frames.Next()
			if f.Function == "specguard/internal/pipeline.(*Pipeline).Run" {
				v = 1
			}
		}
		s.underRun.CompareAndSwap(0, v)
	}
	return s.Predictor.Predict(pc, op, taken)
}

// TestRunDrainsOneLaneDrainIsRun: the scheduler runs a one-lane drain
// as Pipeline.Run, whatever drains share the call, so a profile that
// attributes timing by its entry points (benchmark/measure.go) finds
// one-lane timing under Run; its Stats and Done are those of any lane.
func TestRunDrainsOneLaneDrainIsRun(t *testing.T) {
	cfg := func(flag *atomic.Int32) Config {
		return Config{Model: machine.R10000(), Predictor: stackPredictor{predict.NewTwoBit(512), flag}}
	}
	ref, err := New(Config{Model: machine.R10000(), Predictor: predict.NewTwoBit(512)})
	if err != nil {
		t.Fatal(err)
	}
	want, err := ref.Run(kernelSource(2000)(t))
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{1, 2} {
		var solo, pair atomic.Int32
		var got []Stats
		ds := []Drain{{
			Work: 1,
			Open: func() (Source, []Config, error) { return kernelSource(2000)(t), []Config{cfg(&solo)}, nil },
			Done: func(st []Stats, _ SkipStats) { got = st },
		}, {
			Work: 2,
			Open: func() (Source, []Config, error) { return kernelSource(2000)(t), []Config{cfg(&pair), cfg(&pair)}, nil },
		}}
		if err := RunDrains(context.Background(), ds, w); err != nil {
			t.Fatal(err)
		}
		if solo.Load() != 1 || pair.Load() != 2 {
			t.Errorf("W=%d: one-lane drain under Pipeline.Run = %v, two-lane drain = %v; want true, false",
				w, solo.Load() == 1, pair.Load() == 1)
		}
		if len(got) != 1 || !reflect.DeepEqual(got[0], want) {
			t.Errorf("W=%d: one-lane drain's Done got %+v, want one Stats equal to a Run's", w, got)
		}
	}
}

// TestRunDrainsConcurrencyBound: at most W goroutines simulate at once,
// and RunDrains starts no more than W−1 of its own.
func TestRunDrainsConcurrencyBound(t *testing.T) {
	for _, w := range []int{1, 2, 3} {
		var active, peak, goroutines atomic.Int32
		base := int32(runtime.NumGoroutine())
		ds := make([]Drain, 3)
		for i := range ds {
			ds[i] = Drain{
				Open: func() (Source, []Config, error) {
					if n := int32(runtime.NumGoroutine()) - base; n > goroutines.Load() {
						goroutines.Store(n)
					}
					cfgs := make([]Config, 4)
					for j := range cfgs {
						cfgs[j] = Config{Model: machine.R10000(), Predictor: gaugePredictor{predict.NewTwoBit(512), &active, &peak}}
					}
					return kernelSource(500)(t), cfgs, nil
				},
			}
		}
		if err := RunDrains(context.Background(), ds, w); err != nil {
			t.Fatal(err)
		}
		if p := peak.Load(); p > int32(w) || p < 1 {
			t.Errorf("W=%d: %d lanes simulated at once", w, p)
		}
		if g := goroutines.Load(); g > int32(w-1) {
			t.Errorf("W=%d: RunDrains ran %d extra goroutines, want ≤ %d", w, g, w-1)
		}
	}
}
