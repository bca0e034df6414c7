package serve

import (
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"specguard/internal/core"
	"specguard/internal/explore"
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

// fuzzMethods are the request methods FuzzParseRunRequest picks from:
// the two the parser accepts and two it must reject.
var fuzzMethods = []string{http.MethodGet, http.MethodPost, http.MethodPut, http.MethodDelete}

// FuzzParseRunRequest drives ParseRunRequest, the wire decoding of
// /v1/run shared by sgserved and sgcoord, with arbitrary POST bodies
// and GET queries built through httptest.NewRequest. It must never
// panic and must reject only with an *ErrBadRequest, and a request it
// accepts must be one NormalizeRequest accepts or rejects the same way.
//
// `make fuzz-smoke` fuzzes it for 10 s; `go test` runs the seeds.
func FuzzParseRunRequest(f *testing.F) {
	f.Add(uint8(0), "", "workload=grep&scheme=2bit")
	f.Add(uint8(0), "", "workload=espresso&scheme=proposed&entries=1024&timeout_ms=500&delay_ms=20")
	f.Add(uint8(0), "", "entries=abc")
	f.Add(uint8(0), "", "timeout_ms=99999999999999999999")
	f.Add(uint8(0), "", "workload=%zz&scheme=;&&==")
	f.Add(uint8(1), `{"workload":"grep","scheme":"2-bitBP"}`, "")
	f.Add(uint8(1), `{"workload":"xlisp","scheme":"perfect","predictor":"gshare","predictor_entries":64,"machine":{"fetch_width":2,"history_bits":8}}`, "")
	f.Add(uint8(1), `{"workload":"compress","scheme":"Proposed","opt":{"disable_guarding":true}}`, "")
	f.Add(uint8(1), `{"workload":"grep","unknown":1}`, "")
	f.Add(uint8(1), `{"workload":`, "")
	f.Add(uint8(1), `[1,2,3]`, "")
	f.Add(uint8(1), `{"machine":{"active_list":1073741824}}`, "")
	f.Add(uint8(2), `{"workload":"grep"}`, "workload=grep")
	f.Add(uint8(3), "", "")

	base := machine.R10000()
	f.Fuzz(func(t *testing.T, method uint8, body, query string) {
		m := fuzzMethods[int(method)%len(fuzzMethods)]
		r := httptest.NewRequest(m, "/v1/run", strings.NewReader(body))
		r.URL.RawQuery = query
		req, err := ParseRunRequest(r)
		if err != nil {
			var bad *ErrBadRequest
			if !errors.As(err, &bad) {
				t.Fatalf("rejection %v (%T) is not an *ErrBadRequest", err, err)
			}
			return
		}
		if m != http.MethodGet && m != http.MethodPost {
			t.Fatalf("accepted a %s request", m)
		}
		if _, _, err := NormalizeRequest(&req, base); err != nil {
			var bad *ErrBadRequest
			if !errors.As(err, &bad) {
				t.Fatalf("normalizing accepted request %+v: %v (%T) is not an *ErrBadRequest", req, err, err)
			}
		}
	})
}

// FuzzParseExploreRequest drives ParseExploreRequest, the decoding of a
// /v1/explore body, with arbitrary bodies. It must never panic and must
// reject only with an *ErrBadRequest. An accepted grid must pass
// explore.Precheck, its MaxPoints must lie in [1, DefaultMaxPoints],
// and it must expand to at most MaxPoints models, each of which passes
// Validate: the handler commits a worker slot to it.
//
// `make fuzz-smoke` fuzzes it for 10 s; `go test` runs the seeds.
func FuzzParseExploreRequest(f *testing.F) {
	f.Add(`{"axes":[{"name":"fetch_width","values":[2,4]},{"name":"active_list","values":[16,32]}],"workloads":["grep"],"scheme":"2bit"}`)
	f.Add(`{"axes":[{"name":"predictor","values":[0,1,2]},{"name":"entries","values":[16,1024]}],"scheme":"perfect","max_points":6}`)
	f.Add(`{"axes":[{"name":"fetch_width","values":[1,2,3,4]}],"max_points":3}`)
	f.Add(`{"axes":[{"name":"fetch_width","values":[2]},{"name":"fetch_width","values":[4]}]}`)
	f.Add(`{"axes":[{"name":"warp_factor","values":[9]}]}`)
	f.Add(`{"axes":[{"name":"int_queue","values":[]}]}`)
	f.Add(`{"axes":[{"name":"int_queue","values":[1]}],"workloads":["nope"]}`)
	f.Add(`{"axes":[],"scheme":"bogus"}`)
	f.Add(`{"axes":[{"name":"miss_penalty","values":[-1]}],"max_points":-5}`)
	f.Add(`{"axes":null,"max_points":99999999}`)
	f.Add(`{"axes":[{"name":"entries","values":[0]}],"extra":true}`)
	f.Add(`{"axes":`)
	for _, o := range oversized {
		f.Add(fmt.Sprintf(`{"axes":[{"name":%q,"values":[%d]}]}`, o.axis, o.value))
	}

	base := machine.R10000()
	f.Fuzz(func(t *testing.T, body string) {
		r := httptest.NewRequest(http.MethodPost, "/v1/explore", strings.NewReader(body))
		req, err := ParseExploreRequest(r)
		if err != nil {
			var bad *ErrBadRequest
			if !errors.As(err, &bad) {
				t.Fatalf("rejection %v (%T) is not an *ErrBadRequest", err, err)
			}
			return
		}
		if err := explore.Precheck(req); err != nil {
			t.Fatalf("accepted grid %+v fails Precheck: %v", req.Axes, err)
		}
		if req.MaxPoints < 1 || req.MaxPoints > explore.DefaultMaxPoints {
			t.Fatalf("accepted MaxPoints %d, want it in [1, %d]", req.MaxPoints, explore.DefaultMaxPoints)
		}
		points, err := machine.Expand(base, req.Axes)
		if err != nil {
			t.Fatalf("accepted grid %+v does not expand: %v", req.Axes, err)
		}
		if len(points) > req.MaxPoints {
			t.Fatalf("accepted grid expands to %d points, over MaxPoints %d", len(points), req.MaxPoints)
		}
		for _, pt := range points {
			if err := pt.Model.Validate(); err != nil {
				t.Fatalf("accepted grid point %v fails Validate: %v", pt.Coords, err)
			}
		}
	})
}
