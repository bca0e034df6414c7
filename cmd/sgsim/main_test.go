package main

import (
	"testing"

	"specguard/internal/bench"
	"specguard/internal/machine"
)

// TestCellSpecRangeErr pins the -scheme and -entries validation: a size
// the predictor cannot take (outside 1..machine.MaxPredictorEntries, or
// not a power of two for gshare) and an unknown scheme are usage errors
// (the CLI exits 2) instead of a panic inside the predictor, while a
// valid cell resolves to its Runner spec.
func TestCellSpecRangeErr(t *testing.T) {
	cases := []struct {
		scheme  string
		entries int
		wantErr bool
	}{
		{"2bit", 512, false},
		{"2bit", 100, false}, // a 2-bit table need not be a power of two
		{"2bit", 1, false},
		{"2bit", machine.MaxPredictorEntries, false},
		{"2bit", 0, true},
		{"2bit", -5, true},
		{"2bit", machine.MaxPredictorEntries + 1, true},
		{"proposed", 64, false},
		{"proposed", 0, true},
		{"perfect", 2048, false},
		{"perfect", -3, true},
		{"gshare", 2048, false},
		{"gshare", 100, true},
		{"gshare", 0, true},
		{"gshare", 2 * machine.MaxPredictorEntries, true},
		{"bogus", 512, true},
	}
	for _, tc := range cases {
		spec, err := cellSpec(machine.R10000(), tc.scheme, tc.entries)
		if (err != nil) != tc.wantErr {
			t.Errorf("cellSpec(%q, %d) = %v, wantErr=%v", tc.scheme, tc.entries, err, tc.wantErr)
			continue
		}
		if err == nil && spec.Entries != tc.entries {
			t.Errorf("cellSpec(%q, %d).Entries = %d", tc.scheme, tc.entries, spec.Entries)
		}
	}
}

// TestCellSpecGShareModel: a gshare cell runs on its own validated
// Clone of the base model with an 8-bit-history gshare table of the
// requested size, leaving the base (the Runner's model) untouched; the
// other schemes run on the Runner's model.
func TestCellSpecGShareModel(t *testing.T) {
	base := machine.R10000()
	want := base.Key()
	spec, err := cellSpec(base, "gshare", 1024)
	if err != nil {
		t.Fatal(err)
	}
	m := spec.Model
	if m == nil || m == base || spec.Scheme != bench.SchemeTwoBit {
		t.Fatalf("gshare spec = %+v, want SchemeTwoBit on a Clone of the base model", spec)
	}
	if m.Predictor != machine.PredGShare || m.HistoryBits != 8 || m.PredictorEntries != 1024 {
		t.Errorf("gshare model predictor = %v/%d bits/%d entries, want gshare/8/1024", m.Predictor, m.HistoryBits, m.PredictorEntries)
	}
	if base.Key() != want {
		t.Error("cellSpec modified the base model")
	}
	for scheme, s := range map[string]bench.Scheme{"2bit": bench.SchemeTwoBit, "proposed": bench.SchemeProposed, "perfect": bench.SchemePerfect} {
		spec, err := cellSpec(base, scheme, 64)
		if err != nil {
			t.Fatal(err)
		}
		if spec.Model != nil || spec.Scheme != s {
			t.Errorf("cellSpec(%q) = %+v, want scheme %v on the Runner's model", scheme, spec, s)
		}
	}
}
