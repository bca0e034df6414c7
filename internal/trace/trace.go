// Package trace captures one architectural execution of a predecoded
// program as a compact packed trace and replays it as the exact same
// committed-event stream, without re-running register or memory
// computation.
//
// Only the information the static Code cannot reconstruct is stored:
//
//   - one bit per conditional-branch execution (taken/not-taken),
//   - one bit per guarded-instruction execution (annulled or not),
//   - a zigzag-varint delta per non-annulled memory access (effective
//     byte addresses are strongly local, so deltas are short),
//   - a uvarint flat-pc per Switch execution (the chosen target).
//
// Everything else — opcodes, code addresses, interned branch-site
// strings, fall-through and taken targets, the call/return structure —
// is replayed from the interp.Code the trace was captured against.
// Replay is bit-identical to live interpretation (the differential
// fuzzer's front-end oracle and the golden Stats tests both pin this),
// so a trace captured once per (workload, scheme) program can feed any
// number of timing simulations: predictor-entry ablations and table
// sweeps re-simulate timing without re-interpreting architecturally.
package trace

import (
	"encoding/binary"
	"fmt"

	"specguard/internal/interp"
	"specguard/internal/isa"
)

// bits is an append-only packed bit stream.
type bits struct {
	words []uint64
	n     int64
}

func (b *bits) append(v bool) {
	w := int(b.n >> 6)
	if w == len(b.words) {
		b.words = append(b.words, 0)
	}
	if v {
		b.words[w] |= 1 << uint(b.n&63)
	}
	b.n++
}

func (b *bits) get(i int64) bool {
	return b.words[i>>6]&(1<<uint(i&63)) != 0
}

// Trace is one captured execution. It is immutable after Capture and
// safe for concurrent replay (each Reader carries its own cursor).
type Trace struct {
	code   *interp.Code
	events int64
	result interp.Result

	branch bits   // taken bit per conditional-branch event
	annul  bits   // annulled bit per guarded-instruction event
	mem    []byte // zigzag-varint deltas of non-annulled effective addresses
	ctrl   []byte // uvarint chosen flat pc per Switch event
}

// Capture runs code to completion on a fresh Machine, recording the
// packed trace. init (if non-nil) installs the initial memory image;
// visit (if non-nil) observes every Event with a reused record, so the
// profiler can collect feedback from the same architectural run that
// fills the trace — one execution serves both.
func Capture(code *interp.Code, opts interp.Options, init func(interp.Memory) error, visit func(*interp.Event)) (*Trace, interp.Result, error) {
	m := code.NewMachine(opts)
	if init != nil {
		if err := init(m); err != nil {
			return nil, interp.Result{}, err
		}
	}
	t := &Trace{code: code}
	var res interp.Result
	var ev interp.Event
	var lastMem int64
	for {
		err := m.Step(&ev)
		if err != nil {
			return nil, res, err
		}
		res.DynInstrs++
		t.events++
		if ev.Instr.Guarded() {
			t.annul.append(ev.Annulled)
		}
		if ev.Annulled {
			res.Annulled++
		} else {
			switch {
			case ev.Branch:
				res.Branches++
				if ev.Taken {
					res.TakenCount++
				}
				t.branch.append(ev.Taken)
			case ev.IsMem:
				t.mem = binary.AppendVarint(t.mem, ev.MemAddr-lastMem)
				lastMem = ev.MemAddr
			case ev.Instr.Op == isa.Switch:
				t.ctrl = binary.AppendUvarint(t.ctrl, uint64(m.PC()))
			}
		}
		if ev.IsMem {
			res.MemOps++
		}
		if visit != nil {
			visit(&ev)
		}
		if m.Halted() {
			res.FinalStateR = m.IntRegs()
			t.result = res
			return t, res, nil
		}
	}
}

// Code returns the predecoded program the trace replays over.
func (t *Trace) Code() *interp.Code { return t.code }

// Events returns the number of committed dynamic instructions.
func (t *Trace) Events() int64 { return t.events }

// Result returns the architectural summary of the captured run.
func (t *Trace) Result() interp.Result { return t.result }

// SizeBytes returns the packed payload size — the whole point: tens of
// bits per thousand instructions instead of a 100+-byte Event each.
func (t *Trace) SizeBytes() int {
	return len(t.branch.words)*8 + len(t.annul.words)*8 + len(t.mem) + len(t.ctrl)
}

// Reader replays a Trace as the exact committed-event stream of the
// captured run. It implements pipeline.Source (NextInto). Readers are
// cheap; create one per simulation or Reset between runs.
type Reader struct {
	t       *Trace
	pc      int32
	stack   []int32
	brPos   int64
	anPos   int64
	memOff  int
	lastMem int64
	ctrlOff int
	emitted int64
	done    bool
}

// NewReader returns a Reader positioned at the first event.
func (t *Trace) NewReader() *Reader {
	r := &Reader{t: t}
	r.Reset()
	return r
}

// Code returns the predecoded program the reader replays over, letting
// consumers (the pipeline's decode window) reuse its static
// per-instruction metadata.
func (r *Reader) Code() *interp.Code { return r.t.code }

// Reset rewinds the reader to the first event.
func (r *Reader) Reset() {
	r.pc = r.t.code.Entry()
	r.stack = r.stack[:0]
	r.brPos, r.anPos = 0, 0
	r.memOff, r.lastMem = 0, 0
	r.ctrlOff = 0
	r.emitted = 0
	r.done = false
}

// NextInto fills *ev with the next committed event, returning false at
// end of trace.
func (r *Reader) NextInto(ev *interp.Event) (bool, error) {
	if r.done {
		return false, nil
	}
	if r.pc < 0 {
		return false, fmt.Errorf("trace: replay fell off the flat code at event %d (corrupt trace?)", r.emitted)
	}
	f := r.t.code.Flat(r.pc)
	// Field-wise reset instead of a struct literal: the literal forces a
	// stack temporary plus an 80-byte duffcopy per event, which dominated
	// the replay profile. The string clear is guarded so the common path
	// (previous event was not a branch) skips the pointer store and its
	// write-barrier check.
	ev.Fn = f.Fn
	ev.Block = f.Block
	ev.Index = int(f.Index)
	ev.Instr = f.Instr
	ev.Addr = f.Addr
	ev.Flat = r.pc
	ev.Branch = false
	ev.Taken = false
	if ev.BranchSite != "" {
		ev.BranchSite = ""
	}
	ev.Annulled = false
	ev.IsMem = false
	ev.MemAddr = 0
	if f.Guarded {
		if r.anPos >= r.t.annul.n {
			return false, fmt.Errorf("trace: annul stream exhausted at event %d", r.emitted)
		}
		annulled := r.t.annul.get(r.anPos)
		r.anPos++
		if annulled {
			ev.Annulled = true
			if f.IsMem {
				ev.IsMem = true
			}
			r.pc = f.Next
			r.emitted++
			return true, nil
		}
	}
	switch f.Kind {
	case interp.KindCond:
		if r.brPos >= r.t.branch.n {
			return false, fmt.Errorf("trace: branch stream exhausted at event %d", r.emitted)
		}
		taken := r.t.branch.get(r.brPos)
		r.brPos++
		ev.Branch = true
		ev.Taken = taken
		ev.BranchSite = r.t.code.SiteName(f.Site)
		if taken {
			r.pc = f.Target
		} else {
			r.pc = f.Next
		}
	case interp.KindJump:
		r.pc = f.Target
	case interp.KindCall:
		r.stack = append(r.stack, f.Next)
		r.pc = f.Target
	case interp.KindRet:
		if len(r.stack) == 0 {
			return false, fmt.Errorf("trace: return with empty replay stack at event %d", r.emitted)
		}
		r.pc = r.stack[len(r.stack)-1]
		r.stack = r.stack[:len(r.stack)-1]
	case interp.KindSwitch:
		tgt, n := binary.Uvarint(r.t.ctrl[r.ctrlOff:])
		if n <= 0 {
			return false, fmt.Errorf("trace: control stream exhausted at event %d", r.emitted)
		}
		r.ctrlOff += n
		r.pc = int32(tgt)
	case interp.KindHalt:
		r.done = true
	default:
		if f.IsMem {
			delta, n := binary.Varint(r.t.mem[r.memOff:])
			if n <= 0 {
				return false, fmt.Errorf("trace: memory stream exhausted at event %d", r.emitted)
			}
			r.memOff += n
			r.lastMem += delta
			ev.IsMem = true
			ev.MemAddr = r.lastMem
		}
		r.pc = f.Next
	}
	r.emitted++
	return true, nil
}
