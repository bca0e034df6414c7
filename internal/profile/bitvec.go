// Package profile implements the paper's feedback metrics (§4–5): each
// conditional branch's dynamic outcome history is recorded as a bit
// vector, then classified — taken frequency, toggle factor, monotonic
// vs. non-monotonic behaviour, segmentation of the iteration space into
// phases with near-uniform behaviour, and detection of "algebraic"
// (counter-expressible) patterns that make a branch instrumentable for
// the split-branch transformation.
package profile

import (
	"fmt"
	"math/bits"
)

// BitVector is an append-only sequence of branch outcomes
// (true = taken), stored packed. Counting queries are word-parallel
// (math/bits.OnesCount64), so scanning a million-outcome history costs
// thousands of word operations, not a million Get calls. Invariant:
// bits at positions >= n are zero (Append only sets live bits and Load
// masks stray payload bits), which the masked popcounts rely on.
//
// The vector also keeps rank samples as it grows: the taken count
// before every rankWords-word block, so CountRange costs at most a few
// popcounts at each end whatever the range. Segmentation issues
// hundreds of overlapping range queries per branch site, and the
// samples, written once by the one goroutine that records or loads the
// history, serve every later reader without an index built per query.
type BitVector struct {
	words []uint64
	n     int
	taken int     // taken outcomes in words
	ranks []int32 // ranks[k] = taken outcomes in words[:k*rankWords]
}

// rankWords is the spacing of BitVector's rank samples: one int32 per
// 512 outcomes, a sixteenth of the packed history's size.
const rankWords = 8

// Append records one outcome.
func (v *BitVector) Append(taken bool) {
	word := v.n >> 6
	if word == len(v.words) {
		if word%rankWords == 0 {
			v.ranks = append(v.ranks, int32(v.taken))
		}
		v.words = append(v.words, 0)
	}
	if taken {
		v.words[word] |= 1 << uint(v.n&63)
		v.taken++
	}
	v.n++
}

// fromWords builds a vector over packed words whose bits at positions
// >= n are already zero, counting its rank samples in one pass.
func fromWords(words []uint64, n int) *BitVector {
	v := &BitVector{words: words, n: n, ranks: make([]int32, 0, (len(words)+rankWords-1)/rankWords)}
	for i, w := range words {
		if i%rankWords == 0 {
			v.ranks = append(v.ranks, int32(v.taken))
		}
		v.taken += bits.OnesCount64(w)
	}
	return v
}

// Get returns outcome i.
func (v *BitVector) Get(i int) bool {
	if i < 0 || i >= v.n {
		panic("profile: BitVector index out of range")
	}
	return v.words[i>>6]&(1<<uint(i&63)) != 0
}

// Len returns the number of recorded outcomes.
func (v *BitVector) Len() int { return v.n }

// CountRange returns how many outcomes in [from, to) are taken. Bounds
// are validated once up front: an inverted or out-of-range pair is a
// caller bug and panics with the offending values.
func (v *BitVector) CountRange(from, to int) int {
	if from < 0 || to > v.n || from > to {
		panic(fmt.Sprintf("profile: CountRange[%d,%d) out of range for %d outcomes", from, to, v.n))
	}
	return v.rank(to) - v.rank(from)
}

// rank returns how many outcomes in [0, i) are taken: the rank sample
// of i's block plus the words of the block before i.
func (v *BitVector) rank(i int) int {
	if i == v.n {
		return v.taken
	}
	w := i >> 6
	block := w / rankWords
	c := int(v.ranks[block])
	for _, x := range v.words[block*rankWords : w] {
		c += bits.OnesCount64(x)
	}
	return c + bits.OnesCount64(v.words[w]&(1<<uint(i&63)-1))
}

// Count returns the total number of taken outcomes.
func (v *BitVector) Count() int { return v.taken }

// Toggles returns the number of adjacent outcome flips
// (TTTFFFTTFF has 3: T→F, F→T, T→F). Each word is XORed against
// itself shifted by one — bit j of w^(w>>1) says outcomes j and j+1
// differ — and the seam between words is patched separately.
func (v *BitVector) Toggles() int {
	if v.n < 2 {
		return 0
	}
	t := 0
	last := (v.n - 1) >> 6 // word holding the final outcome
	for i := 0; i <= last; i++ {
		w := v.words[i]
		x := (w ^ (w >> 1)) &^ (1 << 63) // 63 in-word adjacent pairs
		if i == last {
			// Keep only pairs whose second outcome is still < n:
			// second outcomes in this word are 64i+1 .. n-1.
			if k := v.n - 1 - i<<6; k < 63 {
				x &= 1<<uint(k) - 1
			}
		}
		t += bits.OnesCount64(x)
		if i < last && (w>>63)&1 != v.words[i+1]&1 {
			t++ // seam pair (64i+63, 64i+64)
		}
	}
	return t
}

// String renders the vector as a T/F string, for tests and debugging.
func (v *BitVector) String() string {
	b := make([]byte, v.n)
	for i := 0; i < v.n; i++ {
		if v.Get(i) {
			b[i] = 'T'
		} else {
			b[i] = 'F'
		}
	}
	return string(b)
}

// FromString builds a BitVector from a T/F string (any byte other than
// 'T' or 't' counts as not-taken); a test convenience.
func FromString(s string) *BitVector {
	v := &BitVector{}
	for i := 0; i < len(s); i++ {
		v.Append(s[i] == 'T' || s[i] == 't')
	}
	return v
}
