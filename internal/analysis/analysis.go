// Package analysis is the static legality analyzer for the compiler's
// IR: a CFG dataflow framework (forward/backward worklist solver,
// must-definedness, exposed-read observability with call summaries,
// reaching definitions / def-use chains, available copies) and a suite
// of lint rules that prove — without running the program — that the
// paper's transformations (speculative hoisting, if-conversion, guard
// lowering, branch splitting) did not break the program on *any* path.
//
// The dynamic differential fuzzer (internal/fuzz) only catches an
// unsound transform on paths an input actually exercises; the rules
// here check the legality obligations themselves:
//
//	use-before-def        a register is read on some path before any
//	                      definition reaches it (warning: architectural
//	                      state is zero-initialized, so this is
//	                      well-defined but suspicious)
//	guard-undef-pred      a guard predicate is not defined on every
//	                      path to the guarded instruction (if-conversion
//	                      always defines the predicate first)
//	dead-guard            a guard on the hardwired p0: vacuous when
//	                      positive, dead code when negated
//	spec-off-trace-live   a speculated instruction's destination may be
//	                      observed on the off-trace path or by the
//	                      controlling branch itself (renaming bug)
//	spec-faulting-op      a faulting operation (load without opt-in,
//	                      div) was hoisted unguarded above its branch
//	split-phase-overlap   two phase dispatches on the same counter
//	                      accept overlapping occurrence intervals
//	split-counter         a split dispatch counter is not initialized
//	                      once at entry and incremented exactly once
//	unreachable-block     a block cannot be reached from function entry
//	machine-illegal-guard a guarded non-move survived lowering
//	                      (ModeMachine only)
//	redundant-copy        a copy whose value is already available
//
// Programs annotated with secret memory regions (prog.Region) are
// additionally run through a speculative-leak taint pass (rule_taint.go)
// with its own severity class:
//
//	secret-dep-load       a memory access whose address may carry
//	                      secret-region taint
//	spec-secret-load      such an access additionally reachable within
//	                      the machine's speculative window of a
//	                      conditional branch — the static counterpart of
//	                      the pipeline's wrong-path leak flagging
//	secret-dep-branch     a conditional branch whose condition may
//	                      carry secret taint
//
// "Clean" means no error-severity diagnostics: warnings flag suspicious
// but well-defined code (zero-init reliance, dead blocks) and do not
// fail the optimizer audit, the fuzz oracle or the CLIs. Leak findings
// are their own severity — a leaky program is legal (the optimizer
// audit accepts it) but unsafe, and the CLIs surface them separately.
package analysis

import (
	"encoding/json"
	"fmt"
	"sort"

	"specguard/internal/dep"
	"specguard/internal/isa"
	"specguard/internal/machine"
	"specguard/internal/prog"
)

// Mode selects which legality contract applies (mirrors prog.VerifyMode).
type Mode int

const (
	// ModeIR accepts compiler-internal forms: fully predicated
	// ("fictional") operations are legal.
	ModeIR Mode = iota
	// ModeMachine additionally requires R10000 legality: the only
	// guarded operation is the conditional move.
	ModeMachine
)

// String returns "ir" or "machine".
func (m Mode) String() string {
	if m == ModeMachine {
		return "machine"
	}
	return "ir"
}

// ParseMode maps the sglint -mode flag values back to a Mode.
func ParseMode(s string) (Mode, error) {
	switch s {
	case "ir":
		return ModeIR, nil
	case "machine":
		return ModeMachine, nil
	}
	return ModeIR, fmt.Errorf("analysis: unknown mode %q (want ir or machine)", s)
}

// Options tunes Analyze.
type Options struct {
	Mode Mode
	// AllowSpeculativeLoads accepts unguarded speculated loads — the
	// caller asserts the xform.SpecOptions.Loads contract (addresses
	// valid on both paths) held when the hoist was made.
	AllowSpeculativeLoads bool
	// Model supplies the machine whose speculative window bounds the
	// spec-secret-load rule (nil selects machine.R10000()). Only
	// consulted for programs carrying secret region annotations.
	Model *machine.Model
}

// Severity ranks a diagnostic.
type Severity int

const (
	// SevWarn marks suspicious but well-defined code.
	SevWarn Severity = iota
	// SevError marks a broken legality obligation.
	SevError
	// SevLeak marks a speculative information leak: the program is
	// legal (the optimizer audit accepts it) but a secret-annotated
	// memory region can influence an address or branch outcome.
	SevLeak
)

// String returns "warn", "error" or "leak".
func (s Severity) String() string {
	switch s {
	case SevError:
		return "error"
	case SevLeak:
		return "leak"
	}
	return "warn"
}

// MarshalJSON renders the severity as its string form, keeping the
// -json output (and the rule IDs inside it) stable for tooling.
func (s Severity) MarshalJSON() ([]byte, error) { return json.Marshal(s.String()) }

// Stable rule identifiers, as emitted in the JSON output.
const (
	RuleUseBeforeDef  = "use-before-def"
	RuleGuardUndef    = "guard-undef-pred"
	RuleDeadGuard     = "dead-guard"
	RuleSpecLive      = "spec-off-trace-live"
	RuleSpecFaulting  = "spec-faulting-op"
	RuleSplitOverlap  = "split-phase-overlap"
	RuleSplitCounter  = "split-counter"
	RuleUnreachable   = "unreachable-block"
	RuleMachineGuard  = "machine-illegal-guard"
	RuleRedundantCopy = "redundant-copy"

	// Speculative-leak rules (SevLeak, rule_taint.go).
	RuleSecretDepLoad   = "secret-dep-load"
	RuleSpecSecretLoad  = "spec-secret-load"
	RuleSecretDepBranch = "secret-dep-branch"
)

// Diagnostic is one position-carrying finding.
type Diagnostic struct {
	Rule     string   `json:"rule"`
	Severity Severity `json:"severity"`
	Func     string   `json:"func"`
	Block    string   `json:"block"`
	// Index is the instruction's position in its block, or -1 for a
	// whole-block finding (e.g. unreachable-block).
	Index int    `json:"index"`
	Instr string `json:"instr,omitempty"`
	Msg   string `json:"msg"`

	funcIdx, blockIdx int // program position, for deterministic ordering
}

// String renders the diagnostic for human output:
//
//	main.loop[3]: error: spec-off-trace-live: ... [add r9, r9, 1]
func (d Diagnostic) String() string {
	pos := fmt.Sprintf("%s.%s", d.Func, d.Block)
	if d.Index >= 0 {
		pos += fmt.Sprintf("[%d]", d.Index)
	}
	s := fmt.Sprintf("%s: %s: %s: %s", pos, d.Severity, d.Rule, d.Msg)
	if d.Instr != "" {
		s += fmt.Sprintf(" [%s]", d.Instr)
	}
	return s
}

// Result is the full outcome of one Analyze run.
type Result struct {
	Diags []Diagnostic `json:"diagnostics"`
}

// Errors counts error-severity diagnostics.
func (r *Result) Errors() int {
	n := 0
	for _, d := range r.Diags {
		if d.Severity == SevError {
			n++
		}
	}
	return n
}

// Warnings counts warn-severity diagnostics.
func (r *Result) Warnings() int {
	n := 0
	for _, d := range r.Diags {
		if d.Severity == SevWarn {
			n++
		}
	}
	return n
}

// Leaks counts leak-severity diagnostics.
func (r *Result) Leaks() int {
	n := 0
	for _, d := range r.Diags {
		if d.Severity == SevLeak {
			n++
		}
	}
	return n
}

// Clean reports whether the program carries no error-severity
// diagnostics. Warnings do not make a program unclean.
func (r *Result) Clean() bool { return r.Errors() == 0 }

// Err folds an unclean result into one error value (nil when clean),
// listing every error-severity diagnostic.
func (r *Result) Err() error {
	if r.Clean() {
		return nil
	}
	msg := ""
	for _, d := range r.Diags {
		if d.Severity != SevError {
			continue
		}
		if msg != "" {
			msg += "; "
		}
		msg += d.String()
	}
	return fmt.Errorf("analysis: %d error(s): %s", r.Errors(), msg)
}

// add appends a diagnostic with its program position.
func (r *Result) add(d Diagnostic) { r.Diags = append(r.Diags, d) }

// sortDiags orders diagnostics by program position, then rule name —
// a deterministic order independent of which rule ran first.
func (r *Result) sortDiags() {
	sort.SliceStable(r.Diags, func(i, j int) bool {
		a, b := r.Diags[i], r.Diags[j]
		if a.funcIdx != b.funcIdx {
			return a.funcIdx < b.funcIdx
		}
		if a.blockIdx != b.blockIdx {
			return a.blockIdx < b.blockIdx
		}
		if a.Index != b.Index {
			return a.Index < b.Index
		}
		return a.Rule < b.Rule
	})
}

// Analyze runs every rule over p and returns the collected diagnostics.
// The program must already pass prog.Verify(p, prog.VerifyIR); Analyze
// assumes structural well-formedness (labels resolve, control only at
// block ends) and checks semantic legality on top of it.
func Analyze(p *prog.Program, opts Options) *Result {
	res := &Result{}
	sums := summarize(p)
	called := make(map[string]bool)
	for _, f := range p.Funcs {
		for _, b := range f.Blocks {
			for _, in := range b.Instrs {
				if in.Op == isa.Call {
					called[in.Label] = true
				}
			}
		}
	}

	for fi, f := range p.Funcs {
		if len(f.Blocks) == 0 {
			continue
		}
		a := &funcAnalysis{
			p:       p,
			f:       f,
			fi:      fi,
			opts:    opts,
			res:     res,
			sums:    sums,
			entryFn: f.Name == p.Entry && !called[f.Name],
		}
		a.prepare()
		a.checkUnreachable()
		a.checkDefs()
		a.checkSpeculation()
		a.checkSplits()
		a.checkCopies()
		if opts.Mode == ModeMachine {
			a.checkMachineGuards()
		}
	}
	checkTaint(p, opts, res)
	res.sortDiags()
	return res
}

// funcAnalysis carries the per-function dataflow solutions the rules
// share.
type funcAnalysis struct {
	p    *prog.Program
	f    *prog.Func
	fi   int
	opts Options
	res  *Result
	sums map[string]dep.RegSet
	// entryFn: f is the program entry and never called, so its incoming
	// register state is the architectural zero-init ({r0, p0} defined).
	entryFn bool

	reach  map[*prog.Block]bool
	mustIn map[*prog.Block]dep.RegSet
	obsIn  map[*prog.Block]dep.RegSet
	rd     *ReachDefs
	copies *CopyFacts
}

// prepare solves the dataflow problems the rules consume.
func (a *funcAnalysis) prepare() {
	dom := prog.Dominators(a.f)
	a.reach = make(map[*prog.Block]bool, len(a.f.Blocks))
	for _, b := range a.f.Blocks {
		a.reach[b] = dom.Reachable(b)
	}
	a.mustIn, _ = mustDefined(a.f, a.entryFn)
	a.obsIn, _ = observedReads(a.f, a.sums)
	a.rd = NewReachDefs(a.f)
	a.copies = NewCopyFacts(a.f)
}

// diag reports one finding at instruction idx of block b (idx -1 for a
// whole-block finding).
func (a *funcAnalysis) diag(rule string, sev Severity, b *prog.Block, idx int, format string, args ...any) {
	d := Diagnostic{
		Rule:     rule,
		Severity: sev,
		Func:     a.f.Name,
		Block:    b.Name,
		Index:    idx,
		Msg:      fmt.Sprintf(format, args...),
		funcIdx:  a.fi,
		blockIdx: a.f.Index(b),
	}
	if idx >= 0 && idx < len(b.Instrs) {
		d.Instr = b.Instrs[idx].String()
	}
	a.res.add(d)
}
