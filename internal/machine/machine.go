// Package machine holds the target description shared by the local
// scheduler (internal/sched) and the timing simulator
// (internal/pipeline): functional-unit counts, operation latencies
// (paper Table 2), queue and register-file sizes, predictor and cache
// geometry. The default configuration is the MIPS R10000-like model of
// the paper's §6.
package machine

import (
	"fmt"
	"strings"

	"specguard/internal/isa"
)

// PredKind names a branch-predictor family. It lives here (rather than
// in internal/predict) so a Model is a complete, serializable machine
// description: the timing harness builds the concrete predictor from
// the pair (Predictor, PredictorEntries, HistoryBits).
type PredKind int

const (
	// PredTwoBit is the R10000's per-branch 2-bit counter table — the
	// zero value, so existing models keep the paper's scheme.
	PredTwoBit PredKind = iota
	// PredGShare is a global-history correlating predictor
	// (pc XOR history indexed 2-bit counters).
	PredGShare
	// PredPerfect is the oracle bound: every control transfer,
	// indirect classes included, predicts correctly.
	PredPerfect

	numPredKinds
)

// String names the family as the axis grammar and the HTTP API spell it.
func (k PredKind) String() string {
	switch k {
	case PredTwoBit:
		return "2bit"
	case PredGShare:
		return "gshare"
	case PredPerfect:
		return "perfect"
	}
	return fmt.Sprintf("predkind(%d)", int(k))
}

// ParsePredKind maps the accepted spellings onto a PredKind.
func ParsePredKind(s string) (PredKind, error) {
	switch strings.ReplaceAll(strings.ToLower(s), "-", "") {
	case "2bit", "2bitbp", "twobit", "twobitbp":
		return PredTwoBit, nil
	case "gshare":
		return PredGShare, nil
	case "perfect", "perfectbp":
		return PredPerfect, nil
	}
	return 0, fmt.Errorf("machine: unknown predictor family %q (want 2bit, gshare or perfect)", s)
}

// Model describes the target machine.
type Model struct {
	// IssueWidth is the in-order fetch/dispatch width and the in-order
	// commit width (4 on the R10000).
	IssueWidth int

	// Units maps each functional-unit class to its count. All units
	// are fully pipelined: they accept a new operation every cycle and
	// latency only delays dependents.
	Units map[isa.UnitClass]int

	// Latencies, in cycles (Table 2). Integer multiply/divide are
	// extensions (Table 2 omits them; their workloads barely use them).
	AluLat, ShiftLat, LdStLat, FPAddLat, FPMulLat, FPDivLat int
	MulLat, DivLat, BranchLat                               int

	// CacheMissPenalty is added to a load/store on a D-cache miss and
	// to fetch on an I-cache miss (Table 2: 6).
	CacheMissPenalty int

	// Queue sizes (paper §6): 16-entry integer, address and FP queues;
	// 4-entry branch stack.
	IntQueue, AddrQueue, FPQueue, BranchStack int

	// ActiveList is the reorder-buffer depth (32 on the R10000).
	ActiveList int

	// RenameRegs is the number of rename registers per file beyond the
	// 32 architectural ones (32 on the R10000: "the chip uses the
	// other 32 registers for its internal use").
	RenameRegs int

	// Predictor geometry: 512-entry 2-bit counter table.
	PredictorEntries int

	// Predictor selects the branch-predictor family the table implements
	// (the zero value is the paper's 2-bit scheme). HistoryBits is the
	// gshare global-history length; the other families have no history
	// register, so they ignore it and cost nothing for it.
	Predictor   PredKind
	HistoryBits int

	// ThrottledFetchWidth, when positive, enables the variable
	// fetch-rate front end: while any predicted-taken branch is in
	// flight (fetched but not yet resolved), fetch is limited to this
	// many instructions per cycle instead of IssueWidth — the throttled
	// mode of "Variable Instruction Fetch Rate to Reduce Control
	// Dependent Penalties". 0 keeps the fixed-rate front end.
	ThrottledFetchWidth int

	// MispredictPenalty is the recovery bubble after a resolved
	// misprediction, beyond waiting for resolution itself (the
	// front-end refill of a 4-wide fetch pipeline).
	MispredictPenalty int

	// Caches: 32 KB each, direct-mapped, 32-byte lines.
	ICacheBytes, DCacheBytes, CacheLineBytes int
}

// R10000 returns the paper's machine model.
func R10000() *Model {
	return &Model{
		IssueWidth: 4,
		Units: map[isa.UnitClass]int{
			isa.UnitALU:    2,
			isa.UnitShift:  1,
			isa.UnitLdSt:   1,
			isa.UnitFPAdd:  1,
			isa.UnitFPMul:  1,
			isa.UnitFPDiv:  1,
			isa.UnitBranch: 1, // branches resolve on ALU1's port
		},
		AluLat:            1,
		ShiftLat:          1,
		LdStLat:           2,
		FPAddLat:          3,
		FPMulLat:          3,
		FPDivLat:          3,
		MulLat:            3,
		DivLat:            6,
		BranchLat:         1,
		CacheMissPenalty:  6,
		IntQueue:          16,
		AddrQueue:         16,
		FPQueue:           16,
		BranchStack:       4,
		ActiveList:        32,
		RenameRegs:        32,
		PredictorEntries:  512,
		MispredictPenalty: 4,
		ICacheBytes:       32 << 10,
		DCacheBytes:       32 << 10,
		CacheLineBytes:    32,
	}
}

// Latency returns the execution latency of op, assuming a cache hit
// for memory operations.
func (m *Model) Latency(op isa.Op) int {
	switch op {
	case isa.Mul:
		return m.MulLat
	case isa.Div:
		return m.DivLat
	}
	switch op.Unit() {
	case isa.UnitALU:
		return m.AluLat
	case isa.UnitShift:
		return m.ShiftLat
	case isa.UnitLdSt:
		return m.LdStLat
	case isa.UnitFPAdd:
		return m.FPAddLat
	case isa.UnitFPMul:
		return m.FPMulLat
	case isa.UnitFPDiv:
		return m.FPDivLat
	case isa.UnitBranch:
		return m.BranchLat
	}
	return 1
}

// UnitCount returns how many units of class u exist (0 for UnitNone).
func (m *Model) UnitCount(u isa.UnitClass) int { return m.Units[u] }

// SpecWindow bounds how many instructions past a conditional branch can
// be in flight before the misprediction is discovered and recovery
// squashes them: the wrong path is fetched for at most
// BranchLat+MispredictPenalty+1 cycles at IssueWidth per cycle, and can
// never exceed the active list, whichever bites first. The taint
// analysis uses this as the reach of the speculative window and the
// dynamic leak tracker uses it to decide which squashed accesses count.
func (m *Model) SpecWindow() int {
	w := m.IssueWidth * (m.BranchLat + m.MispredictPenalty + 1)
	if m.ActiveList < w {
		w = m.ActiveList
	}
	if w < 1 {
		w = 1
	}
	return w
}

// Clone returns an independent copy of the model, for ablation sweeps
// that vary one parameter. The Units map is copied deeply: a by-value
// Model copy shares the map, so a sweep variant mutating unit counts
// through a shallow copy would silently corrupt every other variant
// derived from the same base. Every derived model must come through
// here.
func (m *Model) Clone() *Model {
	c := *m
	c.Units = make(map[isa.UnitClass]int, len(m.Units))
	for k, v := range m.Units {
		c.Units[k] = v
	}
	return &c
}

// pow2 reports whether n is a positive power of two.
func pow2(n int) bool { return n > 0 && n&(n-1) == 0 }

// MaxPredictorEntries bounds predictor table sizes everywhere a size is
// accepted (Validate, the sweep axes, the HTTP API): 2^24 two-bit
// counters is already far beyond any plausible table and small enough
// that a hostile request cannot allocate its way to an OOM.
const MaxPredictorEntries = 1 << 24

// Upper bounds on the other axes a request or sweep can set, checked by
// Validate like MaxPredictorEntries: the pipeline sizes a lane's state
// from them, so without a bound one request could ask for terabytes.
// Each admits every value this repository uses (at most fetch_width 8,
// queues 32, active_list 128, rename_regs 64, 32 KB caches) with room
// to explore past them; the comments give the worst case per lane.
const (
	// MaxFetchWidth bounds fetch_width. A lane's fetch buffer holds
	// 2 × width window indices: 1 KiB at 64. The drain's shared decode
	// window also reaches 3 × width events further (184 B each).
	MaxFetchWidth = 64
	// MaxQueueEntries bounds int_queue, addr_queue and fp_queue. A queue
	// depth only limits occupancy (queued instructions live in the
	// active list), so it sizes nothing: 0 B per lane.
	MaxQueueEntries = 1024
	// MaxBranchStack bounds branch_stack, an occupancy limit like a
	// queue's: 0 B per lane.
	MaxBranchStack = 1024
	// MaxActiveList bounds active_list. The ROB ring takes 104 B per
	// entry and the eight per-unit ready queues 8 B each, plus their
	// wake-up heaps: about 232 KiB per lane at 1024. The drain's shared
	// decode window keeps twice the largest lane's reach: about 2.5 MiB
	// at 1024 entries and fetch width 64.
	MaxActiveList = 1024
	// MaxRenameRegs bounds rename_regs, one free count per register
	// file: 0 B per lane.
	MaxRenameRegs = 1024
	// MaxCacheBytes bounds icache_bytes and dcache_bytes. A
	// direct-mapped cache keeps 9 B per line (tag and valid flag): 72 KiB
	// per cache at 32-byte lines, 2.25 MiB at 1-byte lines.
	MaxCacheBytes = 256 << 10
	// MaxLineBytes bounds line_bytes. A longer line means fewer lines,
	// so it sizes nothing by itself (MaxCacheBytes covers the worst
	// case, the shortest line): 0 B per lane.
	MaxLineBytes = 4096
	// MaxPenalty bounds miss_penalty and mispredict_penalty. The miss
	// penalty widens the completion wheel by 24 B per cycle: about
	// 48 KiB per lane at 1024 with the R10000's latencies. The
	// mispredict penalty is a stall length: 0 B per lane.
	MaxPenalty = 1024
)

// Validate checks every axis of the model and returns an error naming
// the first offending field, or nil. A Model that passes is safe to
// hand to the pipeline: positive widths, queues deep enough to accept
// one full dispatch group, power-of-two cache geometry, a predictor
// configuration its family can realize, and no axis past its Max
// bound, so a lane's state stays bounded.
func (m *Model) Validate() error {
	for _, l := range []struct {
		name   string
		v, max int
	}{
		{"fetch_width", m.IssueWidth, MaxFetchWidth},
		{"int_queue", m.IntQueue, MaxQueueEntries}, {"addr_queue", m.AddrQueue, MaxQueueEntries},
		{"fp_queue", m.FPQueue, MaxQueueEntries}, {"branch_stack", m.BranchStack, MaxBranchStack},
		{"active_list", m.ActiveList, MaxActiveList}, {"rename_regs", m.RenameRegs, MaxRenameRegs},
		{"icache_bytes", m.ICacheBytes, MaxCacheBytes}, {"dcache_bytes", m.DCacheBytes, MaxCacheBytes},
		{"line_bytes", m.CacheLineBytes, MaxLineBytes},
		{"miss_penalty", m.CacheMissPenalty, MaxPenalty}, {"mispredict_penalty", m.MispredictPenalty, MaxPenalty},
	} {
		if l.v > l.max {
			return fmt.Errorf("machine: %s %d exceeds the maximum %d", l.name, l.v, l.max)
		}
	}
	if m.IssueWidth < 1 {
		return fmt.Errorf("machine: fetch_width must be positive, got %d", m.IssueWidth)
	}
	for u := isa.UnitClass(1); u < isa.NumUnitClasses; u++ {
		if m.Units[u] < 1 {
			return fmt.Errorf("machine: units[%s] must be positive, got %d", u, m.Units[u])
		}
	}
	for _, l := range []struct {
		name string
		v    int
	}{
		{"alu_lat", m.AluLat}, {"shift_lat", m.ShiftLat}, {"ldst_lat", m.LdStLat},
		{"fpadd_lat", m.FPAddLat}, {"fpmul_lat", m.FPMulLat}, {"fpdiv_lat", m.FPDivLat},
		{"mul_lat", m.MulLat}, {"div_lat", m.DivLat}, {"branch_lat", m.BranchLat},
	} {
		if l.v < 1 {
			return fmt.Errorf("machine: %s must be positive, got %d", l.name, l.v)
		}
	}
	if m.CacheMissPenalty < 0 {
		return fmt.Errorf("machine: miss_penalty must be non-negative, got %d", m.CacheMissPenalty)
	}
	if m.MispredictPenalty < 0 {
		return fmt.Errorf("machine: mispredict_penalty must be non-negative, got %d", m.MispredictPenalty)
	}
	for _, q := range []struct {
		name string
		v    int
	}{{"int_queue", m.IntQueue}, {"addr_queue", m.AddrQueue}, {"fp_queue", m.FPQueue}} {
		if q.v < m.IssueWidth {
			return fmt.Errorf("machine: %s (%d) must be at least the issue width (%d)", q.name, q.v, m.IssueWidth)
		}
	}
	if m.BranchStack < 1 {
		return fmt.Errorf("machine: branch_stack must be positive, got %d", m.BranchStack)
	}
	if m.ActiveList < m.IssueWidth {
		return fmt.Errorf("machine: active_list (%d) must be at least the issue width (%d)", m.ActiveList, m.IssueWidth)
	}
	if m.RenameRegs < 1 {
		return fmt.Errorf("machine: rename_regs must be positive, got %d", m.RenameRegs)
	}
	if m.PredictorEntries < 1 || m.PredictorEntries > MaxPredictorEntries {
		return fmt.Errorf("machine: entries must be in [1, %d], got %d", MaxPredictorEntries, m.PredictorEntries)
	}
	if m.Predictor < 0 || m.Predictor >= numPredKinds {
		return fmt.Errorf("machine: predictor %d is not a known family", int(m.Predictor))
	}
	if m.Predictor == PredGShare && !pow2(m.PredictorEntries) {
		return fmt.Errorf("machine: gshare entries must be a power of two, got %d", m.PredictorEntries)
	}
	if m.HistoryBits < 0 || m.HistoryBits > 24 {
		return fmt.Errorf("machine: history_bits must be in [0, 24], got %d", m.HistoryBits)
	}
	if !pow2(m.CacheLineBytes) {
		return fmt.Errorf("machine: line_bytes must be a power of two, got %d", m.CacheLineBytes)
	}
	for _, c := range []struct {
		name string
		v    int
	}{{"icache_bytes", m.ICacheBytes}, {"dcache_bytes", m.DCacheBytes}} {
		if !pow2(c.v) || c.v < m.CacheLineBytes {
			return fmt.Errorf("machine: %s must be a power of two no smaller than line_bytes, got %d", c.name, c.v)
		}
	}
	if m.ThrottledFetchWidth < 0 || m.ThrottledFetchWidth > m.IssueWidth {
		return fmt.Errorf("machine: throttle_width must be in [0, fetch_width=%d], got %d", m.IssueWidth, m.ThrottledFetchWidth)
	}
	return nil
}

// Key renders the complete configuration as a canonical string: two
// models describe the same machine iff their Keys are equal. Sweep
// machinery uses it to share simulation lanes between duplicate points
// and to extend content-addressed result identities with the machine
// configuration.
func (m *Model) Key() string {
	var b strings.Builder
	fmt.Fprintf(&b, "w%d|u", m.IssueWidth)
	for u := isa.UnitClass(1); u < isa.NumUnitClasses; u++ {
		if u > 1 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%d", m.Units[u])
	}
	fmt.Fprintf(&b, "|l%d,%d,%d,%d,%d,%d,%d,%d,%d",
		m.AluLat, m.ShiftLat, m.LdStLat, m.FPAddLat, m.FPMulLat, m.FPDivLat,
		m.MulLat, m.DivLat, m.BranchLat)
	fmt.Fprintf(&b, "|mp%d|q%d,%d,%d,%d|al%d|rr%d|pe%d|pk%d|hb%d|bp%d|ic%d|dc%d|cl%d|tw%d",
		m.CacheMissPenalty, m.IntQueue, m.AddrQueue, m.FPQueue, m.BranchStack,
		m.ActiveList, m.RenameRegs, m.PredictorEntries, int(m.Predictor), m.HistoryBits,
		m.MispredictPenalty, m.ICacheBytes, m.DCacheBytes, m.CacheLineBytes,
		m.ThrottledFetchWidth)
	return b.String()
}
