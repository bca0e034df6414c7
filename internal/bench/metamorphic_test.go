package bench

import (
	"context"
	"reflect"
	"slices"
	"testing"

	"specguard/internal/analysis"
	"specguard/internal/machine"
)

// Model-derived metamorphic relations, run through the one timing path.
// Which instructions commit or annul is architectural: the program and
// its input fix it, so no machine that times the run may change it. An
// oracle predictor never mispredicts, on any machine. And a wrong-path
// access is speculative exactly when it lies within the model's
// speculative window (Model.SpecWindow) of its branch, for the static
// taint pass and the dynamic leak count alike. These hold by the
// definition of the model, not by agreement with an earlier output.

// expandGrid returns the points of a machine.Expand grid over the
// R10000.
func expandGrid(t *testing.T, axes []machine.Axis) []machine.Point {
	t.Helper()
	points, err := machine.Expand(machine.R10000(), axes)
	if err != nil {
		t.Fatal(err)
	}
	return points
}

// TestMetamorphicModelRelations runs one RunSpecs call over two small
// grids and checks, per workload:
//   - the original program's Committed and Annulled are equal on every
//     model of the first grid, under 2-bitBP and PerfectBP alike;
//   - the Proposed program is the same program on every model of the
//     second grid, which varies only axes the optimizer does not read:
//     equal Committed, Annulled and optimizer Report;
//   - the PerfectBP scheme, and the perfect predictor family under any
//     scheme, give Mispredicts == 0.
//
// The second grid is every one-axis step from its first point plus the
// far corner, not the full 2^7 product.
func TestMetamorphicModelRelations(t *testing.T) {
	ws := []Workload{Grep(), Xlisp()}
	original := expandGrid(t, []machine.Axis{
		{Name: "fetch_width", Values: []int{2, 4}},
		{Name: "active_list", Values: []int{16, 64}},
		{Name: "predictor", Values: []int{int(machine.PredTwoBit), int(machine.PredGShare), int(machine.PredPerfect)}},
		{Name: "entries", Values: []int{16, 1024}},
		{Name: "history_bits", Values: []int{4}},
		{Name: "mispredict_penalty", Values: []int{1, 8}},
	})
	unread := []machine.Axis{
		{Name: "active_list", Values: []int{32, 16}},
		{Name: "int_queue", Values: []int{16, 8}},
		{Name: "icache_bytes", Values: []int{32 << 10, 4 << 10}},
		{Name: "miss_penalty", Values: []int{6, 20}},
		{Name: "throttle_width", Values: []int{0, 2}},
		{Name: "branch_stack", Values: []int{4, 2}},
		{Name: "rename_regs", Values: []int{32, 12}},
	}
	proposed := expandGrid(t, unread)
	// Keep the points at most one step from the first, and the last.
	var steps []*machine.Model
	for i, p := range proposed {
		moved := 0
		for j, c := range p.Coords {
			if c.Value != unread[j].Values[0] {
				moved++
			}
		}
		if moved <= 1 || i == len(proposed)-1 {
			steps = append(steps, p.Model)
		}
	}
	if len(steps) != len(unread)+2 {
		t.Fatalf("kept %d Proposed models, want %d", len(steps), len(unread)+2)
	}
	if raceDetectorOn {
		// One workload, every fifth original model (every predictor
		// family among them) and the two ends of the Proposed steps.
		ws = ws[:1]
		var sub []machine.Point
		for i := 0; i < len(original); i += 5 {
			sub = append(sub, original[i])
		}
		original, steps = sub, []*machine.Model{steps[0], steps[len(steps)-1]}
	}

	var specs []Spec
	for _, w := range ws {
		for _, p := range original {
			specs = append(specs, Spec{Workload: w, Scheme: SchemeTwoBit, Model: p.Model}, Spec{Workload: w, Scheme: SchemePerfect, Model: p.Model})
		}
		for _, m := range steps {
			specs = append(specs, Spec{Workload: w, Scheme: SchemeProposed, Model: m})
		}
	}
	r := NewRunner()
	res, err := r.RunSpecs(context.Background(), specs)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(r.programs); got != 2*len(ws) {
		t.Errorf("%d programs ran, want %d: every Proposed model must yield one program per workload", got, 2*len(ws))
	}

	first := map[string]int{} // first original / Proposed cell per workload
	for i, spec := range specs {
		c, st := res[i], res[i].Stats
		if spec.Scheme == SchemePerfect || spec.Model.Predictor == machine.PredPerfect {
			if st.Mispredicts != 0 {
				t.Errorf("%s/%s on %s: %d mispredicts under perfect prediction", c.Workload, c.Scheme, spec.Model.Key(), st.Mispredicts)
			}
		}
		key := c.Workload
		if spec.Scheme == SchemeProposed {
			key += "/proposed"
		}
		j, ok := first[key]
		if !ok {
			first[key] = i
			continue
		}
		ref := res[j]
		if st.Committed != ref.Stats.Committed || st.Annulled != ref.Stats.Annulled {
			t.Errorf("%s/%s on %s: committed/annulled %d/%d, want %d/%d as on %s",
				c.Workload, c.Scheme, spec.Model.Key(), st.Committed, st.Annulled,
				ref.Stats.Committed, ref.Stats.Annulled, specs[j].Model.Key())
		}
		if spec.Scheme == SchemeProposed && !reflect.DeepEqual(c.Report, ref.Report) {
			t.Errorf("%s/Proposed on %s: the optimizer decided differently than on %s", c.Workload, spec.Model.Key(), specs[j].Model.Key())
		}
	}
}

// TestMetamorphicSpecDistance: over a grid of the axes SpecWindow reads
// (fetch width, mispredict penalty, active list), the static taint pass
// flags spec-secret-load at exactly the wrong-path secret loads within
// the model's window of their branch, and RunLeak under 2-bit
// prediction counts exactly those loads, once each: probeVictim's one
// branch mispredicts once, and its wrong path holds a secret-indexed
// load at each window the grid spans (6 to 56) and one past it.
func TestMetamorphicSpecDistance(t *testing.T) {
	const length = 70
	dists := []int{1, 6, 7, 12, 13, 16, 17, 24, 25, 28, 29, 32, 33, 56, 57, 70}
	w := probeVictim(dists, length)
	windows := map[int]bool{}
	for _, pt := range expandGrid(t, []machine.Axis{
		{Name: "fetch_width", Values: []int{2, 4}},
		{Name: "mispredict_penalty", Values: []int{1, 4, 12}},
		{Name: "active_list", Values: []int{16, 32, 64}},
	}) {
		m := pt.Model
		win := m.SpecWindow()
		windows[win] = true
		var want []int // block positions of the loads within the window
		for _, d := range dists {
			if d <= win {
				want = append(want, d-1)
			}
		}

		var got []int
		for _, d := range analysis.Analyze(w.Build(), analysis.Options{Model: m}).Diags {
			if d.Rule == analysis.RuleSpecSecretLoad {
				if d.Block != "body" {
					t.Fatalf("window %d: spec-secret-load at %s.%s[%d], outside the wrong path", win, d.Func, d.Block, d.Index)
				}
				got = append(got, d.Index)
			}
		}
		slices.Sort(got)
		if !slices.Equal(got, want) {
			t.Errorf("%s (window %d): spec-secret-load at body positions %v, want %v", m.Key(), win, got, want)
		}

		r := NewRunner()
		r.Model = m
		res, err := r.RunLeak(context.Background(), w, SchemeTwoBit)
		if err != nil {
			t.Fatal(err)
		}
		if st := res.Stats; st.Mispredicts != 1 || st.SpecSecretAccesses != int64(len(want)) || res.StaticSpec != len(want) {
			t.Errorf("%s (window %d): %d mispredicts, %d wrong-path secret accesses, %d static sites; want 1, %d and %d",
				m.Key(), win, st.Mispredicts, st.SpecSecretAccesses, res.StaticSpec, len(want), len(want))
		}
	}
	for _, win := range []int{6, 12, 16, 24, 28, 32, 56} {
		if !windows[win] {
			t.Errorf("no grid point has window %d", win)
		}
	}
}
