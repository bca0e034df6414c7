package interp

import (
	"testing"

	"specguard/internal/asm"
)

// pagesAllocated returns how many pages of m hold storage.
func (m *image) pagesAllocated() int {
	n := 0
	for _, pg := range m.pages {
		if pg != nil {
			n++
		}
	}
	return n
}

// TestPagedImage: an absent page reads as zero and a zero write leaves
// it absent; the first non-zero write allocates one page; the last word
// of the image is addressable and the word past it is out of range with
// the same errors as before paging; Reset zeroes the words it wrote and
// keeps their pages.
func TestPagedImage(t *testing.T) {
	const bytes = 3*pageWords*8 + 64 // a partial last page
	code, err := Predecode(asm.MustParse("func main:\nB0:\n\thalt\n"), nil)
	if err != nil {
		t.Fatal(err)
	}
	m := code.NewMachine(Options{MemBytes: bytes})
	if v, err := m.ReadWord(2 * pageWords * 8); v != 0 || err != nil {
		t.Fatalf("absent page reads %d, %v; want 0, nil", v, err)
	}
	allocs := testing.AllocsPerRun(10, func() {
		if err := m.WriteWord(pageWords*8+16, 0); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 || m.pagesAllocated() != 0 {
		t.Fatalf("zero writes allocated %.0f objects and %d pages, want none", allocs, m.pagesAllocated())
	}

	last := int64(bytes - 8)
	for _, w := range []struct{ addr, v int64 }{{last, 7}, {0, -1}, {last - 8, 3}} {
		if err := m.WriteWord(w.addr, w.v); err != nil {
			t.Fatalf("WriteWord(%#x): %v", w.addr, err)
		}
		if v, err := m.ReadWord(w.addr); v != w.v || err != nil {
			t.Fatalf("ReadWord(%#x) = %d, %v; want %d", w.addr, v, err, w.v)
		}
	}
	if got := m.pagesAllocated(); got != 2 {
		t.Errorf("%d pages allocated after writes to the first and last pages, want 2", got)
	}
	for _, c := range []struct {
		addr int64
		err  string
	}{
		{bytes, "interp: address 0x3040 out of range"},
		{bytes - 4, "interp: address 0x303c out of range"},
		{-8, "interp: address -0x8 out of range"},
		{last - 4, "interp: unaligned access at 0x3034"},
		{1<<63 - 8, "interp: address 0x7ffffffffffffff8 out of range"},
	} {
		_, rerr := m.ReadWord(c.addr)
		werr := m.WriteWord(c.addr, 1)
		if rerr == nil || werr == nil || rerr.Error() != c.err || werr.Error() != c.err {
			t.Errorf("access at %#x: read %v, write %v; want %q", c.addr, rerr, werr, c.err)
		}
	}

	m.Reset()
	for _, addr := range []int64{0, last - 8, last} {
		if v, _ := m.ReadWord(addr); v != 0 {
			t.Errorf("after Reset the word at %#x reads %d, want 0", addr, v)
		}
	}
	if got := m.pagesAllocated(); got != 2 {
		t.Errorf("Reset left %d pages, want the 2 it zeroed", got)
	}
}
