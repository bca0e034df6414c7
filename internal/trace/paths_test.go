package trace_test

import (
	"testing"

	"specguard/internal/bench"
	"specguard/internal/interp"
	"specguard/internal/trace"
)

// TestRunPathsAgree: the four ways to run a program architecturally —
// the reference Interp.Run, Machine.Run, TaintMachine.Run and
// trace.Capture — return equal Results, all six fields, and visit as
// many events as they count, on every paper and leak workload. The Halt
// event, which ends every run, is where a run loop most easily
// miscounts.
func TestRunPathsAgree(t *testing.T) {
	for _, w := range append(bench.All(), bench.LeakWorkloads()...) {
		t.Run(w.Name, func(t *testing.T) {
			p := w.Build()
			img, err := interp.NewImage(interp.Options{}, w.Init)
			if err != nil {
				t.Fatal(err)
			}
			opts := interp.Options{Image: img}
			code, err := interp.Predecode(p, nil)
			if err != nil {
				t.Fatal(err)
			}
			ref, err := interp.New(p, nil, opts)
			if err != nil {
				t.Fatal(err)
			}
			var visits int64
			want, err := ref.Run(func(interp.Event) { visits++ })
			if err != nil {
				t.Fatal(err)
			}
			if want.DynInstrs == 0 || visits != want.DynInstrs {
				t.Fatalf("Interp.Run visited %d events and counted %d", visits, want.DynInstrs)
			}
			paths := []struct {
				name string
				run  func(visit func(*interp.Event)) (interp.Result, error)
			}{
				{"Machine.Run", code.NewMachine(opts).Run},
				{"TaintMachine.Run", code.NewTaintMachine(opts, 64).Run},
				{"trace.Capture", func(visit func(*interp.Event)) (interp.Result, error) {
					tr, res, err := trace.Capture(code, opts, nil, visit)
					if err == nil && (tr.Result() != res || tr.Events() != res.DynInstrs) {
						t.Errorf("trace.Capture's trace holds %+v over %d events, returned %+v", tr.Result(), tr.Events(), res)
					}
					return res, err
				}},
			}
			for _, path := range paths {
				n := int64(0)
				got, err := path.run(func(*interp.Event) { n++ })
				if err != nil {
					t.Fatalf("%s: %v", path.name, err)
				}
				if got != want {
					t.Errorf("%s returned %+v, Interp.Run %+v", path.name, got, want)
				}
				if n != visits {
					t.Errorf("%s visited %d events, Interp.Run %d", path.name, n, visits)
				}
			}
		})
	}
}
