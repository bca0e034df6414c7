package machine

import (
	"strings"
	"testing"

	"specguard/internal/isa"
)

func TestR10000MatchesPaperConfiguration(t *testing.T) {
	m := R10000()
	// §6: "can issue up to 4 instructions".
	if m.IssueWidth != 4 {
		t.Errorf("IssueWidth = %d", m.IssueWidth)
	}
	// "two arithmetic logic units … three floating-point units and an
	// address-calculation unit".
	if m.UnitCount(isa.UnitALU) != 2 {
		t.Errorf("ALUs = %d", m.UnitCount(isa.UnitALU))
	}
	if m.UnitCount(isa.UnitLdSt) != 1 || m.UnitCount(isa.UnitShift) != 1 {
		t.Error("address-calc/shifter counts wrong")
	}
	fp := m.UnitCount(isa.UnitFPAdd) + m.UnitCount(isa.UnitFPMul) + m.UnitCount(isa.UnitFPDiv)
	if fp != 3 {
		t.Errorf("FP units = %d, want 3", fp)
	}
	// "The FP queue (consisting of 16 entries) … address queue (16
	// entries) and integer queue (16 entries)".
	if m.IntQueue != 16 || m.AddrQueue != 16 || m.FPQueue != 16 {
		t.Error("queue sizes wrong")
	}
	if m.BranchStack != 4 {
		t.Errorf("branch stack = %d", m.BranchStack)
	}
	// "register files comprises of 64 registers … only 32 visible".
	if m.RenameRegs != 32 {
		t.Errorf("rename registers = %d", m.RenameRegs)
	}
	// "512-entry, 2-bit buffer".
	if m.PredictorEntries != 512 {
		t.Errorf("predictor entries = %d", m.PredictorEntries)
	}
	// "32-KB instruction and 32-KB data cache".
	if m.ICacheBytes != 32<<10 || m.DCacheBytes != 32<<10 {
		t.Error("cache sizes wrong")
	}
}

func TestTable2Latencies(t *testing.T) {
	m := R10000()
	cases := map[isa.Op]int{
		isa.Add:  1,
		isa.Sll:  1,
		isa.Lw:   2,
		isa.Sw:   2,
		isa.FAdd: 3,
		isa.FMul: 3,
		isa.FDiv: 3,
		isa.Mul:  3, // extension (Table 2 omits integer multiply)
		isa.Div:  6, // extension
		isa.Beq:  1,
	}
	for op, want := range cases {
		if got := m.Latency(op); got != want {
			t.Errorf("Latency(%v) = %d, want %d", op, got, want)
		}
	}
	if m.CacheMissPenalty != 6 {
		t.Errorf("miss penalty = %d, want 6 (Table 2)", m.CacheMissPenalty)
	}
}

func TestCloneIsIndependent(t *testing.T) {
	m := R10000()
	c := m.Clone()
	c.IssueWidth = 8
	c.Units[isa.UnitALU] = 7
	if m.IssueWidth != 4 || m.UnitCount(isa.UnitALU) != 2 {
		t.Error("Clone shares state with the original")
	}
	if c.UnitCount(isa.UnitALU) != 7 {
		t.Error("Clone lost its own mutation")
	}
}

func TestUnitCountUnknownClass(t *testing.T) {
	if R10000().UnitCount(isa.UnitNone) != 0 {
		t.Error("unknown class must report 0 units")
	}
}

// TestValidate drives every axis through its rejection case and checks
// the error names the offending field.
func TestValidate(t *testing.T) {
	cases := []struct {
		name    string
		mutate  func(*Model)
		wantSub string // "" means valid
	}{
		{"r10000 clean", func(m *Model) {}, ""},
		{"gshare clean", func(m *Model) { m.Predictor = PredGShare; m.HistoryBits = 8 }, ""},
		{"perfect clean", func(m *Model) { m.Predictor = PredPerfect }, ""},
		{"throttle clean", func(m *Model) { m.ThrottledFetchWidth = 2 }, ""},
		{"zero width", func(m *Model) { m.IssueWidth = 0 }, "fetch_width"},
		{"negative width", func(m *Model) { m.IssueWidth = -4 }, "fetch_width"},
		{"zero units", func(m *Model) { m.Units[isa.UnitALU] = 0 }, "units"},
		{"missing unit class", func(m *Model) { delete(m.Units, isa.UnitFPDiv) }, "units"},
		{"zero latency", func(m *Model) { m.LdStLat = 0 }, "ldst_lat"},
		{"negative fp latency", func(m *Model) { m.FPDivLat = -1 }, "fpdiv_lat"},
		{"negative miss penalty", func(m *Model) { m.CacheMissPenalty = -1 }, "miss_penalty"},
		{"negative mispredict penalty", func(m *Model) { m.MispredictPenalty = -2 }, "mispredict_penalty"},
		{"int queue below width", func(m *Model) { m.IntQueue = 3 }, "int_queue"},
		{"addr queue below width", func(m *Model) { m.AddrQueue = 0 }, "addr_queue"},
		{"fp queue below width", func(m *Model) { m.FPQueue = 2 }, "fp_queue"},
		{"zero branch stack", func(m *Model) { m.BranchStack = 0 }, "branch_stack"},
		{"rob below width", func(m *Model) { m.ActiveList = 3 }, "active_list"},
		{"zero rename regs", func(m *Model) { m.RenameRegs = 0 }, "rename_regs"},
		{"zero entries", func(m *Model) { m.PredictorEntries = 0 }, "entries"},
		{"giant entries", func(m *Model) { m.PredictorEntries = MaxPredictorEntries + 1 }, "entries"},
		{"bogus predictor", func(m *Model) { m.Predictor = numPredKinds }, "predictor"},
		{"negative predictor", func(m *Model) { m.Predictor = -1 }, "predictor"},
		{"gshare non-pow2 entries", func(m *Model) { m.Predictor = PredGShare; m.PredictorEntries = 500 }, "gshare entries"},
		{"history bits too long", func(m *Model) { m.HistoryBits = 25 }, "history_bits"},
		{"negative history bits", func(m *Model) { m.HistoryBits = -1 }, "history_bits"},
		{"non-pow2 line", func(m *Model) { m.CacheLineBytes = 48 }, "line_bytes"},
		{"non-pow2 icache", func(m *Model) { m.ICacheBytes = 3000 }, "icache_bytes"},
		{"dcache below line", func(m *Model) { m.DCacheBytes = 16 }, "dcache_bytes"},
		{"negative throttle", func(m *Model) { m.ThrottledFetchWidth = -1 }, "throttle_width"},
		{"throttle above width", func(m *Model) { m.ThrottledFetchWidth = 5 }, "throttle_width"},
		{"huge width", func(m *Model) { m.IssueWidth = MaxFetchWidth + 1 }, "fetch_width"},
		{"huge int queue", func(m *Model) { m.IntQueue = MaxQueueEntries + 1 }, "int_queue"},
		{"huge addr queue", func(m *Model) { m.AddrQueue = 1 << 40 }, "addr_queue"},
		{"huge fp queue", func(m *Model) { m.FPQueue = MaxQueueEntries + 1 }, "fp_queue"},
		{"huge branch stack", func(m *Model) { m.BranchStack = 1 << 40 }, "branch_stack"},
		{"huge rob", func(m *Model) { m.ActiveList = 1 << 30 }, "active_list"},
		{"huge rename regs", func(m *Model) { m.RenameRegs = 1 << 40 }, "rename_regs"},
		{"huge icache", func(m *Model) { m.ICacheBytes = 1 << 40 }, "icache_bytes"},
		{"huge dcache", func(m *Model) { m.DCacheBytes = 2 * MaxCacheBytes }, "dcache_bytes"},
		{"huge line", func(m *Model) { m.CacheLineBytes = 2 * MaxLineBytes }, "line_bytes"},
		{"huge miss penalty", func(m *Model) { m.CacheMissPenalty = 1 << 40 }, "miss_penalty"},
		{"huge mispredict penalty", func(m *Model) { m.MispredictPenalty = MaxPenalty + 1 }, "mispredict_penalty"},
		{"every axis at its maximum", func(m *Model) {
			m.IssueWidth, m.ThrottledFetchWidth = MaxFetchWidth, MaxFetchWidth
			m.IntQueue, m.AddrQueue, m.FPQueue = MaxQueueEntries, MaxQueueEntries, MaxQueueEntries
			m.BranchStack, m.ActiveList, m.RenameRegs = MaxBranchStack, MaxActiveList, MaxRenameRegs
			m.ICacheBytes, m.DCacheBytes, m.CacheLineBytes = MaxCacheBytes, MaxCacheBytes, MaxLineBytes
			m.CacheMissPenalty, m.MispredictPenalty = MaxPenalty, MaxPenalty
			m.PredictorEntries = MaxPredictorEntries
		}, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := R10000()
			tc.mutate(m)
			err := m.Validate()
			if tc.wantSub == "" {
				if err != nil {
					t.Fatalf("Validate() = %v, want nil", err)
				}
				return
			}
			if err == nil {
				t.Fatalf("Validate() = nil, want error naming %q", tc.wantSub)
			}
			if !strings.Contains(err.Error(), tc.wantSub) {
				t.Errorf("Validate() = %q, want mention of %q", err, tc.wantSub)
			}
		})
	}
}

func TestParsePredKind(t *testing.T) {
	for s, want := range map[string]PredKind{
		"2bit": PredTwoBit, "2BitBP": PredTwoBit, "TwoBit": PredTwoBit,
		"gshare": PredGShare, "GShare": PredGShare,
		"perfect": PredPerfect, "PerfectBP": PredPerfect, "perfect-bp": PredPerfect,
	} {
		got, err := ParsePredKind(s)
		if err != nil || got != want {
			t.Errorf("ParsePredKind(%q) = %v, %v; want %v", s, got, err, want)
		}
	}
	if _, err := ParsePredKind("oracle"); err == nil {
		t.Error("ParsePredKind accepted an unknown family")
	}
	for k := PredKind(0); k < numPredKinds; k++ {
		back, err := ParsePredKind(k.String())
		if err != nil || back != k {
			t.Errorf("round trip %v → %q → %v, %v", k, k.String(), back, err)
		}
	}
}

func TestKeyDistinguishesModels(t *testing.T) {
	base := R10000()
	if base.Key() != R10000().Key() {
		t.Fatal("identical models have different keys")
	}
	seen := map[string]string{base.Key(): "base"}
	for _, name := range AxisNames() {
		m := base.Clone()
		// A value no axis shares with the default or each other.
		if err := Apply(m, name, 7777); err != nil {
			t.Fatalf("Apply(%s): %v", name, err)
		}
		k := m.Key()
		if prev, dup := seen[k]; dup {
			t.Errorf("axis %s collides with %s: key %q", name, prev, k)
		}
		seen[k] = name
	}
	// Units are part of the key too.
	m := base.Clone()
	m.Units[isa.UnitALU] = 4
	if m.Key() == base.Key() {
		t.Error("unit counts not captured in Key")
	}
}

func TestExpand(t *testing.T) {
	base := R10000()
	axes := []Axis{
		{Name: "fetch_width", Values: []int{2, 4}},
		{Name: "active_list", Values: []int{32, 64, 128}},
		{Name: "predictor", Values: []int{int(PredTwoBit), int(PredPerfect)}},
	}
	pts, err := Expand(base, axes)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 12 {
		t.Fatalf("Expand returned %d points, want 12", len(pts))
	}
	// First point: all axes at their first value; last axis varies fastest.
	if p := pts[0]; p.Model.IssueWidth != 2 || p.Model.ActiveList != 32 || p.Model.Predictor != PredTwoBit {
		t.Errorf("first point wrong: %s", p.CoordLabel())
	}
	if p := pts[1]; p.Model.Predictor != PredPerfect || p.Model.IssueWidth != 2 {
		t.Errorf("second point should vary the last axis first: %s", p.CoordLabel())
	}
	// Every point validates, has 3 coords, and a unique key.
	keys := map[string]bool{}
	for _, p := range pts {
		if err := p.Model.Validate(); err != nil {
			t.Errorf("point %s invalid: %v", p.CoordLabel(), err)
		}
		if len(p.Coords) != 3 {
			t.Errorf("point has %d coords", len(p.Coords))
		}
		keys[p.Model.Key()] = true
	}
	if len(keys) != 12 {
		t.Errorf("expected 12 distinct keys, got %d", len(keys))
	}
	// The base model was not touched.
	if base.IssueWidth != 4 || base.Predictor != PredTwoBit {
		t.Error("Expand mutated the base model")
	}

	// The default R10000 cell appears in the grid with an identical key.
	found := false
	for _, p := range pts {
		if p.Model.Key() == base.Key() {
			found = true
		}
	}
	if !found {
		t.Error("grid containing the default coordinates lost the base point")
	}
}

func TestExpandNoAxes(t *testing.T) {
	pts, err := Expand(R10000(), nil)
	if err != nil || len(pts) != 1 {
		t.Fatalf("Expand(nil) = %d points, %v; want the base point", len(pts), err)
	}
	if pts[0].Model.Key() != R10000().Key() {
		t.Error("base point differs from the base model")
	}
}

func TestExpandErrors(t *testing.T) {
	base := R10000()
	if _, err := Expand(base, []Axis{{Name: "nope", Values: []int{1}}}); err == nil {
		t.Error("unknown axis accepted")
	}
	if _, err := Expand(base, []Axis{{Name: "fetch_width"}}); err == nil {
		t.Error("empty axis accepted")
	}
	if _, err := Expand(base, []Axis{
		{Name: "fetch_width", Values: []int{4}},
		{Name: "fetch_width", Values: []int{2}},
	}); err == nil {
		t.Error("duplicate axis accepted")
	}
	// A cell that fails Validate surfaces the coordinates.
	_, err := Expand(base, []Axis{{Name: "fetch_width", Values: []int{4, 0}}})
	if err == nil || !strings.Contains(err.Error(), "fetch_width=0") {
		t.Errorf("invalid cell error missing coordinates: %v", err)
	}
	if err := Apply(base.Clone(), "bogus", 1); err == nil {
		t.Error("Apply accepted an unknown axis")
	}
}
