package bench

import (
	"testing"

	"specguard/internal/interp"
	"specguard/internal/machine"
	"specguard/internal/pipeline"
	"specguard/internal/predict"
	"specguard/internal/profile"
	"specguard/internal/xform"
)

func TestDiagEspressoMerge(t *testing.T) {
	w := Espresso()
	prof, _, err := profile.Collect(w.Build(), interp.Options{}, w.Init)
	if err != nil {
		t.Fatal(err)
	}
	run := func(p interface{}) {}
	_ = run
	sim := func(label string, merge bool) {
		p := w.Build()
		f := p.Func("main")
		// manual: if-convert cover and sparse, optionally merge
		for _, name := range []string{"sparse", "cover"} {
			h := xform.MatchHammock(f, f.Block(name))
			if h == nil {
				t.Fatalf("%s not hammock", name)
			}
			if err := xform.IfConvert(f, h, xform.NewPredPool(f)); err != nil {
				t.Fatal(err)
			}
			if merge {
				xform.MergeBlocks(f)
			}
		}
		if err := xform.LowerProgram(p); err != nil {
			t.Fatal(err)
		}
		code, err := interp.Predecode(p, nil)
		if err != nil {
			t.Fatal(err)
		}
		m := code.NewMachine(interp.Options{})
		if err := w.Init(m); err != nil {
			t.Fatal(err)
		}
		pipe, _ := pipeline.New(pipeline.Config{Model: machine.R10000(), Predictor: predict.NewTwoBit(512)})
		st, err := pipe.Run(m)
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("%s: cycles=%d ipc=%.3f icache-miss=%d mispred=%d", label, st.Cycles, st.IPC(), st.ICacheMisses, st.Mispredicts)
	}
	sim("no-merge", false)
	sim("merge", true)
	_ = prof
}
