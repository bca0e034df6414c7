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
	"slices"

	"specguard/internal/interp"
	"specguard/internal/isa"
)

// blockShift sizes the blocks every stream of a trace is chained from:
// 1<<blockShift bytes, 4 KiB. A stream grows a block at a time, never by
// re-copying what it holds, and its last block is trimmed to its use, so
// a capture allocates about SizeBytes plus one block per stream. It is
// at least 4, so a varint's worst case fits one block; a variable so
// tests can cross block boundaries with small blocks.
var blockShift uint = 12

// bits is an append-only packed bit stream in blocks of 1<<blockShift
// bytes.
type bits struct {
	blocks [][]uint64 // full blocks, the last one trimmed by trim
	shift  uint       // log2 of the bits per block, below 64
	wmask  int64      // words per block − 1
	n      int64
}

func (b *bits) append(v bool) {
	if b.n>>(b.shift&63) == int64(len(b.blocks)) {
		if b.blocks == nil {
			b.shift = blockShift + 3
			b.wmask = 1<<(b.shift-6) - 1
		}
		b.blocks = append(b.blocks, make([]uint64, b.wmask+1))
	}
	if v {
		b.blocks[len(b.blocks)-1][b.n>>6&b.wmask] |= 1 << uint(b.n&63)
	}
	b.n++
}

// get reads bit i. The shift is masked to 63 so it compiles to one
// instruction: replay reads a bit per branch and guarded event.
func (b *bits) get(i int64) bool {
	return b.blocks[i>>(b.shift&63)][i>>6&b.wmask]&(1<<uint(i&63)) != 0
}

// trim shortens the last block to the words it uses.
func (b *bits) trim() {
	if last := len(b.blocks) - 1; last >= 0 {
		used := (b.n - int64(last)<<(b.shift&63) + 63) >> 6
		b.blocks[last] = slices.Clone(b.blocks[last][:used])
	}
}

// size returns the stream's payload bytes.
func (b *bits) size() int {
	n := 0
	for _, blk := range b.blocks {
		n += 8 * len(blk)
	}
	return n
}

// varints is an append-only stream of varints in blocks of
// 1<<blockShift bytes.
// No varint straddles two blocks: a block is closed once the next
// varint might not fit, so a reader decodes every varint from one
// slice.
type varints struct {
	blocks [][]byte // closed blocks, each cut to the bytes it holds
	cur    []byte   // the open block
	off    int      // bytes of cur in use
}

// room makes sure the open block fits a varint of any value.
func (s *varints) room() {
	if len(s.cur)-s.off < binary.MaxVarintLen64 {
		s.close()
		s.cur = make([]byte, 1<<blockShift)
	}
}

func (s *varints) putVarint(v int64) {
	s.room()
	s.off += binary.PutVarint(s.cur[s.off:], v)
}

func (s *varints) putUvarint(v uint64) {
	s.room()
	s.off += binary.PutUvarint(s.cur[s.off:], v)
}

// close appends the open block's bytes to blocks.
func (s *varints) close() {
	if s.off > 0 {
		s.blocks = append(s.blocks, s.cur[:s.off])
	}
	s.cur, s.off = nil, 0
}

// trim closes the open block as an exact-size copy.
func (s *varints) trim() {
	s.cur = slices.Clone(s.cur[:s.off])
	s.close()
}

// size returns the stream's payload bytes.
func (s *varints) size() int {
	n := s.off
	for _, blk := range s.blocks {
		n += len(blk)
	}
	return n
}

// cursor is a Reader's position in a varints stream.
type cursor struct {
	blk  []byte // the block being read
	off  int    // bytes of blk already read
	next int    // index of the block after blk
}

// rest returns the unread bytes of the current block, moving to the
// next block once this one is read; it is empty at the stream's end.
func (c *cursor) rest(s *varints) []byte {
	if c.off == len(c.blk) && c.next < len(s.blocks) {
		c.blk, c.off = s.blocks[c.next], 0
		c.next++
	}
	return c.blk[c.off:]
}

// Trace is one captured execution. It is immutable after Capture and
// safe for concurrent replay (each Reader carries its own cursor).
type Trace struct {
	code   *interp.Code
	result interp.Result

	branch bits    // taken bit per conditional-branch event
	annul  bits    // annulled bit per guarded-instruction event
	mem    varints // zigzag-varint deltas of non-annulled effective addresses
	ctrl   varints // uvarint chosen flat pc per Switch event
}

// Capture runs code to completion on a fresh Machine, recording the
// packed trace: it is Machine.Run with a visitor that appends each
// event's stored fields to the four streams. The machine starts from
// opts.Image when it is set, and shares its pages copy-on-write, so a
// capture allocates only the pages the program changes; init (if
// non-nil) then writes the input into the machine's memory. visit (if
// non-nil) observes every Event with a reused record, so the profiler
// can collect feedback from the same architectural run that fills the
// trace — one execution serves both.
func Capture(code *interp.Code, opts interp.Options, init func(interp.Memory) error, visit func(*interp.Event)) (*Trace, interp.Result, error) {
	m := code.NewMachine(opts)
	if init != nil {
		if err := init(m); err != nil {
			return nil, interp.Result{}, err
		}
	}
	t := &Trace{code: code}
	var lastMem int64
	res, err := m.Run(func(ev *interp.Event) {
		if ev.Instr.Guarded() {
			t.annul.append(ev.Annulled)
		}
		if !ev.Annulled {
			switch {
			case ev.Branch:
				t.branch.append(ev.Taken)
			case ev.IsMem:
				t.mem.putVarint(ev.MemAddr - lastMem)
				lastMem = ev.MemAddr
			case ev.Instr.Op == isa.Switch:
				t.ctrl.putUvarint(uint64(m.PC()))
			}
		}
		if visit != nil {
			visit(ev)
		}
	})
	if err != nil {
		return nil, res, err
	}
	t.result = res
	t.branch.trim()
	t.annul.trim()
	t.mem.trim()
	t.ctrl.trim()
	return t, res, nil
}

// Code returns the predecoded program the trace replays over.
func (t *Trace) Code() *interp.Code { return t.code }

// Events returns the number of committed dynamic instructions.
func (t *Trace) Events() int64 { return t.result.DynInstrs }

// Result returns the architectural summary of the captured run.
func (t *Trace) Result() interp.Result { return t.result }

// SizeBytes returns the packed payload size — the whole point: tens of
// bits per thousand instructions instead of a 100+-byte Event each.
func (t *Trace) SizeBytes() int {
	return t.branch.size() + t.annul.size() + t.mem.size() + t.ctrl.size()
}

// Reader replays a Trace as the exact committed-event stream of the
// captured run. It is a pipeline.Source (NextInto and Code). Readers
// are cheap; create one per simulation or Reset between runs.
type Reader struct {
	t       *Trace
	pc      int32
	stack   []int32
	brPos   int64
	anPos   int64
	mem     cursor
	lastMem int64
	ctrl    cursor
	emitted int64
	done    bool
}

// NewReader returns a Reader positioned at the first event.
func (t *Trace) NewReader() *Reader {
	r := &Reader{t: t}
	r.Reset()
	return r
}

// Code returns the predecoded program the reader replays over: the
// pipeline's decode window reads each event's static operands from it.
func (r *Reader) Code() *interp.Code { return r.t.code }

// Reset rewinds the reader to the first event.
func (r *Reader) Reset() {
	r.pc = r.t.code.Entry()
	r.stack = r.stack[:0]
	r.brPos, r.anPos = 0, 0
	r.mem, r.lastMem = cursor{}, 0
	r.ctrl = cursor{}
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
		tgt, n := binary.Uvarint(r.ctrl.rest(&r.t.ctrl))
		if n <= 0 {
			return false, fmt.Errorf("trace: control stream exhausted at event %d", r.emitted)
		}
		r.ctrl.off += n
		r.pc = int32(tgt)
	case interp.KindHalt:
		r.done = true
	default:
		if f.IsMem {
			delta, n := binary.Varint(r.mem.rest(&r.t.mem))
			if n <= 0 {
				return false, fmt.Errorf("trace: memory stream exhausted at event %d", r.emitted)
			}
			r.mem.off += n
			r.lastMem += delta
			ev.IsMem = true
			ev.MemAddr = r.lastMem
		}
		r.pc = f.Next
	}
	r.emitted++
	return true, nil
}
