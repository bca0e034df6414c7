package interp

import (
	"fmt"
	"slices"
)

// pageShift sizes the pages of an image: 4 KiB, 512 words.
const (
	pageShift = 12
	pageWords = 1 << (pageShift - 3)
)

// image is data memory: MemBytes/8 words in 4 KiB pages, each allocated
// on its first non-zero write, so an absent page reads as zeros. The
// kernels touch about a fifth of the default 1 MiB, so a run allocates
// about that fifth instead of the whole image. Interp and Machine embed
// it, which gives both the Memory surface and one copy of the bounds
// and alignment checks.
//
// A memory started from a frozen Image shares that Image's pages
// copy-on-write: base is the Image's page table, and a page that is
// still base's is copied on the first write that changes a word of it.
type image struct {
	pages []*[pageWords]int64
	base  []*[pageWords]int64 // the Image's pages; nil when started empty
	words int64
}

// newImage returns an all-zero image of bytes/8 words.
func newImage(bytes int64) image {
	words := bytes / 8
	return image{pages: make([]*[pageWords]int64, (words+pageWords-1)/pageWords), words: words}
}

// Image is a frozen initial data memory: what an initializer (a
// workload's Init) wrote into an all-zero memory, built once by
// NewImage and never written again. A machine started from it
// (Options.Image) points its page table at the Image's pages and copies
// a page only when it first changes a word of it, so any number of
// machines, concurrent ones too, run from one Image, each allocating
// only the pages it changes.
type Image struct {
	mem image
}

// NewImage runs init (if non-nil) on an all-zero memory of
// opts.MemBytes (1 MiB when 0) and freezes the result.
func NewImage(opts Options, init func(Memory) error) (*Image, error) {
	if opts.MemBytes == 0 {
		opts.MemBytes = DefaultOptions().MemBytes
	}
	img := &Image{mem: newImage(opts.MemBytes)}
	if init != nil {
		if err := init(&img.mem); err != nil {
			return nil, err
		}
	}
	return img, nil
}

// memory returns the data memory a front end starts with: opts.Image's
// pages, shared, or an all-zero image of opts.MemBytes.
func (opts Options) memory() image {
	if img := opts.Image; img != nil {
		return image{pages: slices.Clone(img.mem.pages), base: img.mem.pages, words: img.mem.words}
	}
	return newImage(opts.MemBytes)
}

// ReadWord returns the 8-byte word at byte address addr.
func (m *image) ReadWord(addr int64) (int64, error) {
	if !m.valid(addr) {
		return 0, m.addrErr(addr)
	}
	return m.word(addr), nil
}

// WriteWord stores v at byte address addr. Workloads use it to build
// their initial memory image.
func (m *image) WriteWord(addr int64, v int64) error {
	if !m.valid(addr) {
		return m.addrErr(addr)
	}
	i, j := addr>>pageShift, addr>>3&(pageWords-1)
	pg := m.pages[i]
	switch {
	case pg == nil:
		if v == 0 {
			return nil // an absent page already reads as zero
		}
		pg = new([pageWords]int64)
		m.pages[i] = pg
	case m.base != nil && pg == m.base[i]:
		if pg[j] == v {
			return nil // the shared page already holds v
		}
		cp := new([pageWords]int64)
		*cp = *pg
		pg = cp
		m.pages[i] = pg
	}
	pg[j] = v
	return nil
}

// addrErr describes why valid rejects addr: its range first, then its
// alignment.
func (m *image) addrErr(addr int64) error {
	if addr < 0 || addr > m.words*8-8 {
		return fmt.Errorf("interp: address %#x out of range", addr)
	}
	return fmt.Errorf("interp: unaligned access at %#x", addr)
}

// valid reports whether addr is an aligned word address inside the
// image.
func (m *image) valid(addr int64) bool {
	return addr >= 0 && addr%8 == 0 && addr/8 < m.words
}

// word reads the word at a valid address.
func (m *image) word(addr int64) int64 {
	if pg := m.pages[addr>>pageShift]; pg != nil {
		return pg[addr>>3&(pageWords-1)]
	}
	return 0
}

// reset restores the starting contents in place: a page the memory
// copied from its Image gets the Image page's contents back, and a page
// the Image lacks is zeroed. Both stay the memory's own, so a memory
// reset between runs of one program allocates nothing on the next.
func (m *image) reset() {
	for i, pg := range m.pages {
		switch {
		case pg == nil:
		case m.base != nil && m.base[i] != nil:
			if pg != m.base[i] {
				*pg = *m.base[i]
			}
		default:
			*pg = [pageWords]int64{}
		}
	}
}
