package profile

import (
	"math/rand"
	"testing"
)

// refCountRange and refToggles are the bit-at-a-time definitions the
// word-parallel implementations must match.
func refCountRange(v *BitVector, from, to int) int {
	c := 0
	for i := from; i < to; i++ {
		if v.Get(i) {
			c++
		}
	}
	return c
}

func refToggles(v *BitVector) int {
	t := 0
	for i := 1; i < v.n; i++ {
		if v.Get(i) != v.Get(i-1) {
			t++
		}
	}
	return t
}

func randVector(rng *rand.Rand, n int) *BitVector {
	v := &BitVector{}
	for i := 0; i < n; i++ {
		v.Append(rng.Intn(2) == 0)
	}
	return v
}

func TestCountRangeEdges(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	// Lengths straddling every word-boundary shape: empty, sub-word,
	// exactly one word, one-past, multi-word, multi-word plus slack, and
	// both sides of the 512-outcome rank-sample seams.
	for _, n := range []int{0, 1, 5, 63, 64, 65, 127, 128, 129, 200, 511, 512, 513, 1000, 1536} {
		v := randVector(rng, n)
		loaded := fromWords(append([]uint64(nil), v.words...), n)
		cases := [][2]int{
			{0, 0}, {0, n}, {n, n}, // empty prefix, everything, empty suffix
		}
		if n > 0 {
			cases = append(cases, [2]int{0, 1}, [2]int{n - 1, n}, [2]int{n / 2, n / 2})
		}
		if n >= 64 {
			cases = append(cases,
				[2]int{0, 64},  // exactly the first word
				[2]int{1, 64},  // word minus leading bit
				[2]int{0, 63},  // word minus trailing bit
				[2]int{63, 64}, // the word's final bit
			)
		}
		if n >= 129 {
			cases = append(cases,
				[2]int{63, 65},  // straddles the first seam
				[2]int{1, 127},  // interior, both edges ragged
				[2]int{64, 128}, // exactly the second word
				[2]int{30, 129}, // multi-word with ragged edges
			)
		}
		for _, c := range cases {
			from, to := c[0], c[1]
			want := refCountRange(v, from, to)
			if got := v.CountRange(from, to); got != want {
				t.Errorf("n=%d CountRange(%d,%d) = %d, want %d", n, from, to, got, want)
			}
			if got := loaded.CountRange(from, to); got != want {
				t.Errorf("n=%d loaded CountRange(%d,%d) = %d, want %d", n, from, to, got, want)
			}
		}
		if got, want := v.Count(), refCountRange(v, 0, n); got != want {
			t.Errorf("n=%d Count = %d, want %d", n, got, want)
		}
		if got, want := v.Toggles(), refToggles(v); got != want {
			t.Errorf("n=%d Toggles = %d, want %d", n, got, want)
		}
	}
}

func TestCountRangeRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(97))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(2000)
		v := randVector(rng, n)
		loaded := fromWords(append([]uint64(nil), v.words...), n)
		for q := 0; q < 40; q++ {
			from := rng.Intn(n + 1)
			to := from + rng.Intn(n+1-from)
			want := refCountRange(v, from, to)
			if got := v.CountRange(from, to); got != want {
				t.Fatalf("n=%d CountRange(%d,%d) = %d, want %d", n, from, to, got, want)
			}
			if got := loaded.CountRange(from, to); got != want {
				t.Fatalf("n=%d loaded CountRange(%d,%d) = %d, want %d", n, from, to, got, want)
			}
		}
	}
}

func TestCountRangeBoundsPanic(t *testing.T) {
	v := FromString("TFTF")
	for _, c := range [][2]int{{-1, 2}, {0, 5}, {3, 2}, {5, 5}, {-1, -1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("CountRange(%d,%d) did not panic", c[0], c[1])
				}
			}()
			v.CountRange(c[0], c[1])
		}()
	}
}

// BenchmarkProfileAnalyze measures the feedback-analysis hot paths over
// a 1M-outcome phase-structured history: counting, toggle scanning,
// segmentation and period detection.
func BenchmarkProfileAnalyze(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	const n = 1 << 20
	bp := &BranchProfile{Site: "bench.loop", Outcomes: &BitVector{}}
	for i := 0; i < n; i++ {
		switch {
		case i < n/3:
			bp.Outcomes.Append(rng.Intn(100) < 95)
		case i < 2*n/3:
			bp.Outcomes.Append(rng.Intn(2) == 0)
		default:
			bp.Outcomes.Append(rng.Intn(100) < 5)
		}
	}

	b.Run("count", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = bp.Outcomes.Count()
		}
	})
	b.Run("toggles", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = bp.Outcomes.Toggles()
		}
	})
	b.Run("segments", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_ = bp.Segments(SegmentOptions{})
		}
	})
	b.Run("period", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_, _ = bp.DetectPeriod(SegmentOptions{})
		}
	})
}
