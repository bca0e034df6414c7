package main

import (
	"testing"

	"specguard/internal/bench"
	"specguard/internal/machine"
)

// TestTableRangeErr pins the -table validation: explicit out-of-range
// values are usage errors (the CLI exits 2), while the unset default
// and the valid range pass through.
func TestTableRangeErr(t *testing.T) {
	cases := []struct {
		table   int
		set     bool
		wantErr bool
	}{
		{0, false, false}, // default: print everything
		{1, true, false},
		{4, true, false},
		{0, true, true}, // explicit 0 is out of range
		{5, true, true},
		{-3, true, true},
	}
	for _, tc := range cases {
		err := tableRangeErr(tc.table, tc.set)
		if (err != nil) != tc.wantErr {
			t.Errorf("tableRangeErr(%d, set=%v) = %v, wantErr=%v", tc.table, tc.set, err, tc.wantErr)
		}
	}
}

// TestEntriesRangeErr pins the -entries validation: 0 keeps the
// model's table size, a size outside the 2-bit predictor's range is a
// usage error (the CLI exits 2) instead of silently running the
// model's size.
func TestEntriesRangeErr(t *testing.T) {
	cases := []struct {
		entries int
		wantErr bool
	}{
		{0, false}, // default: the model's size
		{1, false},
		{100, false},
		{2048, false},
		{machine.MaxPredictorEntries, false},
		{-3, true},
		{-5, true},
		{machine.MaxPredictorEntries + 1, true},
	}
	for _, tc := range cases {
		err := entriesRangeErr(tc.entries)
		if (err != nil) != tc.wantErr {
			t.Errorf("entriesRangeErr(%d) = %v, wantErr=%v", tc.entries, err, tc.wantErr)
		}
	}
}

// TestTable2UsesConfiguredRunner guards the Table 2 path: it must
// render the configured runner's machine model, not a fresh default
// one, so model overrides echo consistently.
func TestTable2UsesConfiguredRunner(t *testing.T) {
	custom := machine.R10000()
	custom.PredictorEntries = 64
	newRunner := func() *bench.Runner {
		r := bench.NewRunner()
		r.Model = custom
		return r
	}
	if got := table2Model(newRunner); got != custom {
		t.Fatal("Table 2 rendered from a default runner's model, not the configured one")
	}
}
