package analysis

import (
	"encoding/json"
	"strings"
	"testing"

	"specguard/internal/asm"
	"specguard/internal/prog"
)

// mark sets the Speculated flag on instruction idx of the named block —
// the flag xform.Speculate sets has no assembly syntax, so spec-rule
// tests plant it directly.
func mark(t *testing.T, p *prog.Program, fn, block string, idx int) {
	t.Helper()
	b := p.Func(fn).Block(block)
	if b == nil || idx >= len(b.Instrs) {
		t.Fatalf("mark: no %s.%s[%d]", fn, block, idx)
	}
	b.Instrs[idx].Speculated = true
}

// rulesFired returns the multiset of rule IDs in the result.
func rulesFired(res *Result) map[string]int {
	m := make(map[string]int)
	for _, d := range res.Diags {
		m[d.Rule]++
	}
	return m
}

// TestRules is the table-driven positive/negative matrix: every rule
// has at least one program that must trigger it and a near-identical
// program that must not.
func TestRules(t *testing.T) {
	cases := []struct {
		name string
		src  string
		mark [3]any // block, index, ok — instruction to flag Speculated
		opts Options
		want string // rule that must fire
		not  string // rule that must not fire
	}{
		{
			name: "use-before-def/positive",
			src: `
func main:
entry:
    add r2, r5, 1
    add r3, r5, 2
    halt
`,
			want: RuleUseBeforeDef,
		},
		{
			name: "use-before-def/negative",
			src: `
func main:
entry:
    li r5, 3
    add r2, r5, 1
    halt
`,
			not: RuleUseBeforeDef,
		},
		{
			name: "use-before-def/guarded-def-does-not-count",
			src: `
func main:
entry:
    li r1, 1
    peq p1, r1, 1
    (p1) li r5, 7
    add r2, r5, 1
    halt
`,
			want: RuleUseBeforeDef,
		},
		{
			name: "guard-undef-pred/positive",
			src: `
func main:
entry:
    li r1, 1
    beq r1, 0, skip
defblk:
    peq p1, r1, 1
skip:
    (p1) mov r2, r1
    halt
`,
			want: RuleGuardUndef,
		},
		{
			name: "guard-undef-pred/negative",
			src: `
func main:
entry:
    li r1, 1
    peq p1, r1, 1
    beq r1, 0, skip
defblk:
    add r3, r1, 1
skip:
    (p1) mov r2, r1
    halt
`,
			not: RuleGuardUndef,
		},
		{
			name: "dead-guard/vacuous",
			src: `
func main:
entry:
    li r1, 1
    (p0) mov r2, r1
    halt
`,
			want: RuleDeadGuard,
		},
		{
			name: "dead-guard/never-executes",
			src: `
func main:
entry:
    li r1, 1
    (!p0) mov r2, r1
    halt
`,
			want: RuleDeadGuard,
		},
		{
			name: "dead-guard/negative",
			src: `
func main:
entry:
    li r1, 1
    peq p1, r1, 1
    (p1) mov r2, r1
    halt
`,
			not: RuleDeadGuard,
		},
		{
			name: "spec-faulting-op/load",
			src: `
func main:
entry:
    li r1, 64
    lw r3, 0(r1)
    beq r1, 5, other
hot:
    mov r2, r3
    halt
other:
    halt
`,
			mark: [3]any{"entry", 1, true},
			want: RuleSpecFaulting,
		},
		{
			name: "spec-faulting-op/load-allowed-by-option",
			src: `
func main:
entry:
    li r1, 64
    lw r3, 0(r1)
    beq r1, 5, other
hot:
    mov r2, r3
    halt
other:
    halt
`,
			mark: [3]any{"entry", 1, true},
			opts: Options{AllowSpeculativeLoads: true},
			not:  RuleSpecFaulting,
		},
		{
			name: "spec-faulting-op/div",
			src: `
func main:
entry:
    li r1, 64
    div r3, r1, 2
    beq r1, 5, other
hot:
    mov r2, r3
    halt
other:
    halt
`,
			mark: [3]any{"entry", 1, true},
			opts: Options{AllowSpeculativeLoads: true},
			want: RuleSpecFaulting,
		},
		{
			name: "spec-faulting-op/alu-negative",
			src: `
func main:
entry:
    li r1, 64
    add r3, r1, 2
    beq r1, 5, other
hot:
    mov r2, r3
    halt
other:
    halt
`,
			mark: [3]any{"entry", 1, true},
			not:  RuleSpecFaulting,
		},
		{
			name: "spec-off-trace-live/positive",
			src: `
func main:
entry:
    li r1, 10
    li r9, 0
    add r9, r1, 1
    beq r1, 5, other
hot:
    mov r2, r9
    halt
other:
    add r3, r9, 2
    halt
`,
			mark: [3]any{"entry", 2, true},
			want: RuleSpecLive,
		},
		{
			name: "spec-off-trace-live/renamed-negative",
			src: `
func main:
entry:
    li r1, 10
    li r9, 0
    add r9, r1, 1
    beq r1, 5, other
hot:
    mov r2, r9
    halt
other:
    li r9, 3
    add r3, r9, 2
    halt
`,
			mark: [3]any{"entry", 2, true},
			not:  RuleSpecLive,
		},
		{
			name: "spec-off-trace-live/branch-reads-dest",
			src: `
func main:
entry:
    li r1, 10
    beq r1, 5, other
hot:
    halt
other:
    halt
`,
			mark: [3]any{"entry", 0, true},
			want: RuleSpecLive,
		},
		{
			name: "spec-off-trace-live/killed-before-branch-negative",
			src: `
func main:
entry:
    li r1, 10
    add r9, r1, 1
    li r9, 0
    beq r1, 5, other
hot:
    mov r2, r9
    halt
other:
    add r3, r9, 2
    halt
`,
			mark: [3]any{"entry", 1, true},
			not:  RuleSpecLive,
		},
		{
			name: "split-phase-overlap/positive",
			src: `
func main:
entry:
    li r2, -1
    li r3, 0
loop:
    add r2, r2, 1
    plt p1, r2, 100
    bp p1, v1
d2:
    pge p2, r2, 90
    bp p2, v2
res:
    j back
v1:
    j back
v2:
    j back
back:
    blt r2, 1000, loop
fini:
    halt
`,
			want: RuleSplitOverlap,
		},
		{
			name: "split-phase-overlap/disjoint-negative",
			src: `
func main:
entry:
    li r2, -1
    li r3, 0
loop:
    add r2, r2, 1
    plt p1, r2, 100
    bp p1, v1
d2:
    pge p2, r2, 100
    bp p2, v2
res:
    j back
v1:
    j back
v2:
    j back
back:
    blt r2, 1000, loop
fini:
    halt
`,
			not: RuleSplitOverlap,
		},
		{
			name: "split-counter/double-increment",
			src: `
func main:
entry:
    li r2, -1
loop:
    add r2, r2, 1
    plt p1, r2, 100
    bp p1, v1
d2:
    pge p2, r2, 100
    bp p2, v2
res:
    j back
v1:
    j back
v2:
    j back
back:
    add r2, r2, 1
    blt r2, 1000, loop
fini:
    halt
`,
			want: RuleSplitCounter,
		},
		{
			name: "split-counter/foreign-writer",
			src: `
func main:
entry:
    li r2, -1
loop:
    add r2, r2, 1
    plt p1, r2, 100
    bp p1, v1
d2:
    pge p2, r2, 100
    bp p2, v2
res:
    j back
v1:
    mul r2, r2, 2
    j back
v2:
    j back
back:
    blt r2, 1000, loop
fini:
    halt
`,
			want: RuleSplitCounter,
		},
		{
			name: "split-counter/clean-negative",
			src: `
func main:
entry:
    li r2, -1
loop:
    add r2, r2, 1
    plt p1, r2, 100
    bp p1, v1
d2:
    pge p2, r2, 100
    bp p2, v2
res:
    j back
v1:
    j back
v2:
    j back
back:
    blt r2, 1000, loop
fini:
    halt
`,
			not: RuleSplitCounter,
		},
		{
			name: "split-counter/periodic-wrap-allowed",
			src: `
func main:
entry:
    li r2, -1
loop:
    add r2, r2, 1
    peq p2, r2, 7
    (p2) mov r2, r0
    plt p1, r2, 3
    bp p1, v1
d2:
    j v2
v1:
    j back
v2:
    j back
back:
    blt r2, 1000, loop
fini:
    halt
`,
			not: RuleSplitCounter,
		},
		{
			name: "split-counter/periodic-missing-init",
			src: `
func main:
entry:
    li r1, 0
loop:
    add r2, r2, 1
    peq p2, r2, 7
    (p2) mov r2, r0
    plt p1, r2, 3
    bp p1, v1
d2:
    j v2
v1:
    j back
v2:
    j back
back:
    blt r2, 1000, loop
fini:
    halt
`,
			want: RuleSplitCounter,
		},
		{
			name: "unreachable-block/positive",
			src: `
func main:
entry:
    li r1, 1
    j end
dead:
    add r1, r1, 1
end:
    halt
`,
			want: RuleUnreachable,
		},
		{
			name: "unreachable-block/negative",
			src: `
func main:
entry:
    li r1, 1
    beq r1, 0, end
mid:
    add r1, r1, 1
end:
    halt
`,
			not: RuleUnreachable,
		},
		{
			name: "machine-illegal-guard/positive",
			src: `
func main:
entry:
    li r1, 1
    peq p1, r1, 1
    (p1) add r2, r1, 1
    halt
`,
			opts: Options{Mode: ModeMachine},
			want: RuleMachineGuard,
		},
		{
			name: "machine-illegal-guard/ir-mode-negative",
			src: `
func main:
entry:
    li r1, 1
    peq p1, r1, 1
    (p1) add r2, r1, 1
    halt
`,
			opts: Options{Mode: ModeIR},
			not:  RuleMachineGuard,
		},
		{
			name: "machine-illegal-guard/cmov-negative",
			src: `
func main:
entry:
    li r1, 1
    peq p1, r1, 1
    (p1) mov r2, r1
    halt
`,
			opts: Options{Mode: ModeMachine},
			not:  RuleMachineGuard,
		},
		{
			name: "redundant-copy/repeated",
			src: `
func main:
entry:
    li r1, 1
    mov r2, r1
    mov r2, r1
    halt
`,
			want: RuleRedundantCopy,
		},
		{
			name: "redundant-copy/self",
			src: `
func main:
entry:
    li r3, 1
    mov r3, r3
    halt
`,
			want: RuleRedundantCopy,
		},
		{
			name: "redundant-copy/killed-negative",
			src: `
func main:
entry:
    li r1, 1
    mov r2, r1
    li r2, 5
    mov r2, r1
    halt
`,
			not: RuleRedundantCopy,
		},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := asm.MustParse(tc.src)
			if ok, _ := tc.mark[2].(bool); ok {
				mark(t, p, "main", tc.mark[0].(string), tc.mark[1].(int))
			}
			res := Analyze(p, tc.opts)
			fired := rulesFired(res)
			if tc.want != "" && fired[tc.want] == 0 {
				t.Errorf("rule %s did not fire; diagnostics: %v", tc.want, res.Diags)
			}
			if tc.not != "" && fired[tc.not] != 0 {
				t.Errorf("rule %s fired unexpectedly; diagnostics: %v", tc.not, res.Diags)
			}
		})
	}
}

// TestUseBeforeDefDeduped pins the per-(function, register) dedup: two
// reads of the same undefined register yield one warning.
func TestUseBeforeDefDeduped(t *testing.T) {
	p := asm.MustParse(`
func main:
entry:
    add r2, r5, 1
    add r3, r5, 2
    sub r4, r5, 3
    halt
`)
	res := Analyze(p, Options{})
	if got := rulesFired(res)[RuleUseBeforeDef]; got != 1 {
		t.Fatalf("want 1 deduped use-before-def warning, got %d: %v", got, res.Diags)
	}
}

// TestCalledFunctionsInheritCallerState pins the interprocedural
// conservatism: a called function's registers are all considered
// defined at its entry (the caller's state flows in), so reads there
// never warn — only the never-called program entry starts from
// zero-init.
func TestCalledFunctionsInheritCallerState(t *testing.T) {
	p := asm.MustParse(`
func main:
entry:
    li r1, 1
    call helper
done:
    halt
func helper:
h0:
    add r2, r7, 1
    ret
`)
	res := Analyze(p, Options{})
	if got := rulesFired(res)[RuleUseBeforeDef]; got != 0 {
		t.Fatalf("called function should not warn on caller-supplied registers: %v", res.Diags)
	}
}

// TestSeveritiesAndCleanliness pins the clean/error contract: warnings
// alone keep a program Clean, errors break it.
func TestSeveritiesAndCleanliness(t *testing.T) {
	warnOnly := asm.MustParse(`
func main:
entry:
    add r2, r5, 1
    halt
`)
	res := Analyze(warnOnly, Options{})
	if len(res.Diags) == 0 {
		t.Fatal("expected a warning")
	}
	if !res.Clean() || res.Errors() != 0 || res.Err() != nil {
		t.Fatalf("warnings must keep the program clean: %+v", res)
	}

	withErr := asm.MustParse(`
func main:
entry:
    li r1, 1
    beq r1, 0, skip
defblk:
    peq p1, r1, 1
skip:
    (p1) mov r2, r1
    halt
`)
	res = Analyze(withErr, Options{})
	if res.Clean() || res.Errors() == 0 || res.Err() == nil {
		t.Fatalf("guard-undef must be an error: %+v", res)
	}
}

// TestDiagnosticJSONShape pins the machine-readable output: rule IDs
// and severities are stable strings, and positions carry through.
func TestDiagnosticJSONShape(t *testing.T) {
	p := asm.MustParse(`
func main:
entry:
    li r1, 1
    (!p0) mov r2, r1
    halt
`)
	res := Analyze(p, Options{})
	raw, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	s := string(raw)
	for _, want := range []string{
		`"rule":"dead-guard"`,
		`"severity":"warn"`,
		`"func":"main"`,
		`"block":"entry"`,
		`"index":1`,
	} {
		if !strings.Contains(s, want) {
			t.Errorf("JSON output missing %s:\n%s", want, s)
		}
	}
}

// TestAnalyzeOptimizerShapes runs the analyzer over hand-built
// equivalents of what the real transforms emit, which must all be
// error-free: the analyzer exists to catch broken transforms, not
// working ones.
func TestAnalyzeOptimizerShapes(t *testing.T) {
	// Shape of xform.Speculate output: renamed destination, copy left
	// at the original position in the hoist-source block.
	hoisted := asm.MustParse(`
func main:
entry:
    li r1, 10
    li r6, 1
    add r9, r1, 1
    beq r1, 5, cold
hot:
    mov r6, r9
    add r2, r6, 3
    halt
cold:
    add r3, r6, 2
    halt
`)
	mark(t, hoisted, "main", "entry", 2)
	if res := Analyze(hoisted, Options{}); !res.Clean() {
		t.Errorf("sound renamed hoist flagged: %v", res.Diags)
	}

	// Shape of xform.IfConvert output: predicate defined immediately
	// before its guarded instructions, both polarities used.
	ifconv := asm.MustParse(`
func main:
entry:
    li r1, 10
    li r2, 0
    peq p1, r1, 10
    (p1) add r2, r2, 1
    (!p1) sub r2, r2, 1
    halt
`)
	if res := Analyze(ifconv, Options{}); !res.Clean() {
		t.Errorf("if-converted hammock flagged: %v", res.Diags)
	}
}

// TestParseMode covers the CLI flag mapping.
func TestParseMode(t *testing.T) {
	if m, err := ParseMode("ir"); err != nil || m != ModeIR {
		t.Errorf("ParseMode(ir) = %v, %v", m, err)
	}
	if m, err := ParseMode("machine"); err != nil || m != ModeMachine {
		t.Errorf("ParseMode(machine) = %v, %v", m, err)
	}
	if _, err := ParseMode("bogus"); err == nil {
		t.Error("ParseMode(bogus) should fail")
	}
	if ModeIR.String() != "ir" || ModeMachine.String() != "machine" {
		t.Error("Mode.String mismatch")
	}
}
