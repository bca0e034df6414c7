package interp

import "fmt"

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
type image struct {
	pages []*[pageWords]int64
	words int64
}

// newImage returns an all-zero image of bytes/8 words.
func newImage(bytes int64) image {
	words := bytes / 8
	return image{pages: make([]*[pageWords]int64, (words+pageWords-1)/pageWords), words: words}
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
	pg := m.pages[addr>>pageShift]
	if pg == nil {
		if v == 0 {
			return nil // an absent page already reads as zero
		}
		pg = new([pageWords]int64)
		m.pages[addr>>pageShift] = pg
	}
	pg[addr>>3&(pageWords-1)] = v
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

// reset zeroes every word, keeping the pages already allocated.
func (m *image) reset() {
	for _, pg := range m.pages {
		if pg != nil {
			*pg = [pageWords]int64{}
		}
	}
}
