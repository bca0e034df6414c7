package interp

import (
	"slices"
	"sync"
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
	const bytes = imgBytes // a partial last page
	m := haltCode(t).NewMachine(Options{MemBytes: bytes})
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
	for _, c := range addrErrs {
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

// imgBytes sizes the memories of these tests: three full pages and a
// partial fourth.
const imgBytes = 3*pageWords*8 + 64

// addrErrs are bad accesses to an imgBytes memory and their errors,
// the same with and without paging or a shared image.
var addrErrs = []struct {
	addr int64
	err  string
}{
	{imgBytes, "interp: address 0x3040 out of range"},
	{imgBytes - 4, "interp: address 0x303c out of range"},
	{-8, "interp: address -0x8 out of range"},
	{imgBytes - 12, "interp: unaligned access at 0x3034"},
	{12, "interp: unaligned access at 0xc"},
	{1<<63 - 8, "interp: address 0x7ffffffffffffff8 out of range"},
}

// testImage builds an image whose first and third pages hold
// non-zero words (addr i*8 of page 0 holds i+1; one word of page 2
// holds 42), and whose second and fourth pages are absent.
func testImage(t *testing.T) *Image {
	t.Helper()
	img, err := NewImage(Options{MemBytes: imgBytes}, func(m Memory) error {
		for i := int64(0); i < pageWords; i++ {
			if err := m.WriteWord(i*8, i+1); err != nil {
				return err
			}
		}
		return m.WriteWord(2*pageWords*8+16, 42)
	})
	if err != nil {
		t.Fatal(err)
	}
	if img.mem.pagesAllocated() != 2 {
		t.Fatalf("image holds %d pages, want 2", img.mem.pagesAllocated())
	}
	return img
}

// haltCode is a program that only halts: the copy-on-write tests drive
// a machine's memory directly.
func haltCode(t *testing.T) *Code {
	t.Helper()
	code, err := Predecode(asm.MustParse("func main:\nB0:\n\thalt\n"), nil)
	if err != nil {
		t.Fatal(err)
	}
	return code
}

// TestImageWriteCopiesPage: a machine started from an image shares its
// pages; its first write of a new value to a shared page copies that
// page, and neither the image nor a second machine on the same image
// sees the write.
func TestImageWriteCopiesPage(t *testing.T) {
	img := testImage(t)
	code := haltCode(t)
	m1 := code.NewMachine(Options{Image: img})
	m2 := code.NewMachine(Options{Image: img})
	for i := range img.mem.pages {
		if m1.pages[i] != img.mem.pages[i] {
			t.Fatalf("page %d of a new machine is not the image's", i)
		}
	}
	if err := m1.WriteWord(8, -7); err != nil {
		t.Fatal(err)
	}
	if m1.pages[0] == img.mem.pages[0] || m1.pages[2] != img.mem.pages[2] {
		t.Errorf("after a write to page 0: page 0 shared %v, page 2 shared %v; want a copy of page 0 only",
			m1.pages[0] == img.mem.pages[0], m1.pages[2] == img.mem.pages[2])
	}
	for _, c := range []struct {
		name string
		m    *image
		want int64
	}{{"writer", &m1.image, -7}, {"image", &img.mem, 2}, {"second machine", &m2.image, 2}} {
		if v, err := c.m.ReadWord(8); v != c.want || err != nil {
			t.Errorf("%s reads %d, %v at 0x8; want %d", c.name, v, err, c.want)
		}
	}
	// The copy keeps the rest of the page.
	if v, _ := m1.ReadWord(16); v != 3 {
		t.Errorf("the copied page reads %d at 0x10, want 3", v)
	}
}

// TestImageWritesThatCopyNothing: writing the value a shared page
// already holds, or a zero to an absent page, allocates nothing and
// leaves the page table as it was.
func TestImageWritesThatCopyNothing(t *testing.T) {
	img := testImage(t)
	m := haltCode(t).NewMachine(Options{Image: img})
	for _, w := range []struct{ addr, v int64 }{
		{8, 2},                              // the held value, shared page 0
		{2*pageWords*8 + 16, 42},            // the held value, shared page 2
		{2*pageWords*8 + 24, 0},             // a zero the shared page 2 already holds
		{pageWords*8 + 8, 0},                // a zero to absent page 1
		{imgBytes - 8, 0},                   // a zero to the absent partial page
		{int64(pageWords-1) * 8, pageWords}, // the last word of page 0
	} {
		allocs := testing.AllocsPerRun(10, func() {
			if err := m.WriteWord(w.addr, w.v); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("writing %d at %#x allocated %.0f objects, want 0", w.v, w.addr, allocs)
		}
	}
	for i := range m.pages {
		if m.pages[i] != img.mem.pages[i] {
			t.Errorf("page %d no longer the image's", i)
		}
	}
}

// TestImageReset: Reset restores the image's contents in place: a
// copied page stays the machine's own, with the image page's words
// back, and a page the image lacks reads zero again. Neither the reset
// nor the same writes after it allocate, and the image is untouched.
func TestImageReset(t *testing.T) {
	img := testImage(t)
	m := haltCode(t).NewMachine(Options{Image: img})
	writes := []struct{ addr, v int64 }{{0, 99}, {2*pageWords*8 + 16, 0}, {pageWords*8 + 8, 5}}
	write := func() {
		for _, w := range writes {
			if err := m.WriteWord(w.addr, w.v); err != nil {
				t.Fatal(err)
			}
		}
	}
	write()
	for i := 0; i < 3; i++ {
		if m.pages[i] == nil || m.pages[i] == img.mem.pages[i] {
			t.Fatalf("after the writes page %d is not the machine's own", i)
		}
	}
	owned := slices.Clone(m.pages)
	m.Reset()
	if !slices.Equal(m.pages, owned) {
		t.Error("Reset changed the page table; copied pages must stay the machine's")
	}
	for addr := int64(0); addr < imgBytes; addr += 8 {
		want, _ := img.mem.ReadWord(addr)
		if v, err := m.ReadWord(addr); v != want || err != nil {
			t.Fatalf("after Reset the word at %#x reads %d, %v; want the image's %d", addr, v, err, want)
		}
	}
	if allocs := testing.AllocsPerRun(10, func() { m.Reset(); write() }); allocs != 0 {
		t.Errorf("Reset and the same writes allocated %.0f objects, want 0", allocs)
	}
	if v, _ := img.mem.ReadWord(0); v != 1 {
		t.Errorf("the image's word 0 reads %d after the runs, want its input 1", v)
	}
}

// TestImageAddrErrors: a machine started from an image has the image's
// size, whatever Options.MemBytes says, and its bounds and alignment
// errors are those of a machine with its own memory; an initializer's
// bad access fails NewImage with the same error.
func TestImageAddrErrors(t *testing.T) {
	img := testImage(t)
	m := haltCode(t).NewMachine(Options{Image: img, MemBytes: 1 << 20})
	if v, err := m.ReadWord(imgBytes - 8); v != 0 || err != nil {
		t.Fatalf("the last word reads %d, %v; want 0, nil", v, err)
	}
	for _, c := range addrErrs {
		_, rerr := m.ReadWord(c.addr)
		werr := m.WriteWord(c.addr, 1)
		if rerr == nil || werr == nil || rerr.Error() != c.err || werr.Error() != c.err {
			t.Errorf("access at %#x: read %v, write %v; want %q", c.addr, rerr, werr, c.err)
		}
		_, ierr := NewImage(Options{MemBytes: imgBytes}, func(m Memory) error { return m.WriteWord(c.addr, 1) })
		if ierr == nil || ierr.Error() != c.err {
			t.Errorf("NewImage writing at %#x: %v, want %q", c.addr, ierr, c.err)
		}
	}
	if v, _ := img.mem.ReadWord(0); v != 1 || img.mem.pagesAllocated() != 2 {
		t.Errorf("failed writes changed the image: word 0 reads %d, %d pages", v, img.mem.pagesAllocated())
	}
}

// imageKernel doubles each word of two pages of input in place and sums
// the originals: every page it writes is an image page.
const imageKernel = `
func main:
entry:
	li r1, 0
	li r8, 0
loop:
	lw r3, 0(r8)
	add r4, r4, r3
	add r3, r3, r3
	sw r3, 0(r8)
	add r8, r8, 8
	add r1, r1, 1
	blt r1, 1024, loop
exit:
	halt
`

// TestImageConcurrentMachines: machines started from one image run
// concurrently (the race detector watches the shared pages, make
// test-race) and each ends as a machine whose own memory the
// initializer wrote, while the image keeps its input.
func TestImageConcurrentMachines(t *testing.T) {
	code, err := Predecode(asm.MustParse(imageKernel), nil)
	if err != nil {
		t.Fatal(err)
	}
	init := func(m Memory) error {
		for i := int64(0); i < 2*pageWords; i++ {
			if err := m.WriteWord(i*8, 3*i+1); err != nil {
				return err
			}
		}
		return nil
	}
	ref := code.NewMachine(Options{MemBytes: imgBytes})
	if err := init(ref); err != nil {
		t.Fatal(err)
	}
	want, err := ref.Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	img, err := NewImage(Options{MemBytes: imgBytes}, init)
	if err != nil {
		t.Fatal(err)
	}
	const machines = 4
	ms := make([]*Machine, machines)
	results := make([]Result, machines)
	errs := make([]error, machines)
	var wg sync.WaitGroup
	for i := range ms {
		ms[i] = code.NewMachine(Options{Image: img})
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[i], errs[i] = ms[i].Run(nil)
		}()
	}
	wg.Wait()
	for i, m := range ms {
		if errs[i] != nil || results[i] != want {
			t.Fatalf("machine %d: %+v, %v; want %+v", i, results[i], errs[i], want)
		}
		for addr := int64(0); addr < imgBytes; addr += 8 {
			got, _ := m.ReadWord(addr)
			if w, _ := ref.ReadWord(addr); got != w {
				t.Fatalf("machine %d: word %#x = %d, want %d", i, addr, got, w)
			}
		}
	}
	for i := int64(0); i < 2*pageWords; i++ {
		if v, _ := img.mem.ReadWord(i * 8); v != 3*i+1 {
			t.Fatalf("the image's word %#x = %d after the runs, want its input %d", i*8, v, 3*i+1)
		}
	}
}
