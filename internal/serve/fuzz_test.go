package serve

import (
	"errors"
	"reflect"
	"testing"

	"specguard/internal/core"
	"specguard/internal/machine"
)

// FuzzNormalizeRequest drives NormalizeRequest, the admission check of
// /v1/run and the cluster's shard key, with arbitrary workloads,
// scheme spellings, predictor families, table sizes and two machine
// overrides. It must never panic, and it must reject only with an
// *ErrBadRequest. An accepted request must describe a machine that
// passes Validate, with a table size in [1, MaxPredictorEntries], and
// normalizing the normalized request again must give the same key and
// Spec: the store and the shard ring rely on that identity.
//
// `make fuzz-smoke` fuzzes it for 10 s; `go test` runs the seeds.
func FuzzNormalizeRequest(f *testing.F) {
	for _, scheme := range []string{"2-bitBP", "2bit", "2bitbp", "twobit", "twobitbp", "TwoBit-BP", "Proposed", "proposed", "PerfectBP", "perfect", "perfect-bp", "nope", ""} {
		f.Add("grep", scheme, "", 0, "", 0, "", 0, false)
	}
	for _, o := range oversized {
		f.Add("espresso", "2bit", "", 0, o.axis, o.value, "", 0, false)
	}
	f.Add("compress", "Proposed", "gshare", 1024, "fetch_width", 2, "history_bits", 8, true)
	f.Add("xlisp", "perfect", "perfect", 0, "active_list", 16, "entries", 1<<24, false)
	f.Add("grep", "2bit", "gshare", 500, "", 0, "", 0, false)
	f.Add("grep", "2bit", "", 1<<24+1, "", 0, "", 0, false)
	f.Add("grep", "2bit", "", -1, "predictor", 7, "", 0, false)
	f.Add("nope", "2bit", "bogus", 0, "warp_factor", 9, "", 0, true)

	base := machine.R10000()
	f.Fuzz(func(t *testing.T, workload, scheme, predictor string, entries int, axis1 string, value1 int, axis2 string, value2 int, withOpt bool) {
		req := RunRequest{Workload: workload, Scheme: scheme, Predictor: predictor, PredictorEntries: entries}
		if axis1 != "" || axis2 != "" {
			req.Machine = map[string]int{axis1: value1, axis2: value2}
		}
		if withOpt {
			req.Opt = &OptRequest{DisableGuarding: true}
		}
		spec, key, err := NormalizeRequest(&req, base)
		if err != nil {
			var bad *ErrBadRequest
			if !errors.As(err, &bad) {
				t.Fatalf("rejection %v (%T) is not an *ErrBadRequest", err, err)
			}
			return
		}
		m := spec.Model
		if m == nil {
			m = base
		}
		if err := m.Validate(); err != nil {
			t.Fatalf("accepted %+v, but its model fails Validate: %v", req, err)
		}
		if spec.Entries < 1 || spec.Entries > machine.MaxPredictorEntries || req.PredictorEntries != spec.Entries {
			t.Fatalf("accepted %+v with Spec entries %d, want the request's, in [1, %d]", req, spec.Entries, machine.MaxPredictorEntries)
		}

		again := req
		spec2, key2, err := NormalizeRequest(&again, base)
		if err != nil {
			t.Fatalf("normalized request %+v rejected: %v", req, err)
		}
		if key2 != key {
			t.Fatalf("normalizing twice changed the key:\n%s\n%s", key, key2)
		}
		if spec2.Workload.Name != spec.Workload.Name || spec2.Scheme != spec.Scheme || spec2.Entries != spec.Entries ||
			!reflect.DeepEqual(spec2.Opt, spec.Opt) || !reflect.DeepEqual(spec2.Model, spec.Model) {
			t.Fatalf("normalizing twice changed the Spec:\n%+v\n%+v", spec, spec2)
		}
		if spec.Opt != nil && *spec.Opt != (core.Options{DisableGuarding: true}) {
			t.Fatalf("optimizer options %+v, want the request's", *spec.Opt)
		}
	})
}
