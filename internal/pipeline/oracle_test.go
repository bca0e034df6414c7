package pipeline

import (
	"fmt"
	"strings"
	"testing"

	"specguard/internal/asm"
	"specguard/internal/interp"
	"specguard/internal/isa"
	"specguard/internal/machine"
	"specguard/internal/predict"
)

// Exact timing oracles: relations whose values follow from
// machine.Model alone, not from an earlier run of the simulator. Each
// compares a kernel of n ops with one of 2n, so the fill and drain
// cycles around the steady state cancel and the difference is exactly
// the cost of n more ops.

// oracleCycles runs body repeated n times between a fixed prologue and
// halt on model m, with SelfCheck on, and returns the cycle count.
func oracleCycles(t *testing.T, m *machine.Model, noICache bool, body func(i int) string, n int) int64 {
	t.Helper()
	var b strings.Builder
	b.WriteString("func main:\nentry:\n\tli r1, 7\n\tli r2, 1\n")
	for i := 0; i < n; i++ {
		b.WriteString("\t" + body(i) + "\n")
	}
	b.WriteString("\thalt\n")
	it, err := interp.New(asm.MustParse(b.String()), nil, interp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	p, err := New(Config{Model: m, Predictor: predict.NewTwoBit(512), DisableICache: noICache, SelfCheck: true})
	if err != nil {
		t.Fatal(err)
	}
	st, err := p.Run(NewInterpSource(it))
	if err != nil {
		t.Fatal(err)
	}
	return st.Cycles
}

// TestOracleSerialChain: N dependent ops issue one latency apart, so
// doubling a serial chain adds exactly N × Latency(op) cycles, with the
// I-cache on or off (a chain is slower than fetch, which hides misses).
func TestOracleSerialChain(t *testing.T) {
	const n = 96
	ops := []struct {
		op   isa.Op
		text string
		set  func(m *machine.Model, lat int)
	}{
		{isa.Add, "add r1, r1, 1", func(m *machine.Model, l int) { m.AluLat = l }},
		{isa.Sll, "sll r1, r1, 1", func(m *machine.Model, l int) { m.ShiftLat = l }},
		{isa.Mul, "mul r1, r1, r2", func(m *machine.Model, l int) { m.MulLat = l }},
		{isa.Div, "div r1, r1, r2", func(m *machine.Model, l int) { m.DivLat = l }},
	}
	for _, o := range ops {
		for _, lat := range []int{1, 2, 3, 7} {
			for _, noIC := range []bool{false, true} {
				m := machine.R10000().Clone()
				o.set(m, lat)
				if err := m.Validate(); err != nil {
					t.Fatal(err)
				}
				body := func(int) string { return o.text }
				got := oracleCycles(t, m, noIC, body, 2*n) - oracleCycles(t, m, noIC, body, n)
				if want := int64(n * m.Latency(o.op)); got != want {
					t.Errorf("%s latency %d, icache off %v: Cycles(%d) − Cycles(%d) = %d, want %d × %d = %d",
						o.text, lat, noIC, 2*n, n, got, n, lat, want)
				}
			}
		}
	}
}

// TestOracleIndependentALU: K independent ALU ops retire at
// min(Units[ALU], IssueWidth) per cycle — issue is bound by the units,
// fetch, dispatch and commit by the width — so with the I-cache off
// doubling them adds exactly K / min(...) cycles.
func TestOracleIndependentALU(t *testing.T) {
	const k = 240 // divisible by every throughput below
	body := func(i int) string { return fmt.Sprintf("li r%d, %d", 3+i%20, i) }
	for _, width := range []int{2, 4} {
		for _, alus := range []int{1, 2, 3, 4} {
			m := machine.R10000().Clone()
			m.IssueWidth = width
			m.Units[isa.UnitALU] = alus
			if err := m.Validate(); err != nil {
				t.Fatal(err)
			}
			got := oracleCycles(t, m, true, body, 2*k) - oracleCycles(t, m, true, body, k)
			if want := int64(k / min(alus, width)); got != want {
				t.Errorf("width %d, %d ALUs: Cycles(%d) − Cycles(%d) = %d, want %d / %d = %d",
					width, alus, 2*k, k, got, k, min(alus, width), want)
			}
		}
	}
}
