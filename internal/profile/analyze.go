package profile

// Phase segmentation and algebraic-pattern detection: the paper's
// refinement of one-time feedback metrics. A 50/50 branch whose trace is
// TTT…FFF… is not unpredictable — it has two monotonic phases; the
// split-branch transformation exploits exactly that. The
// "instrumentable" routine of Fig. 6 requires the toggle pattern to be
// expressible with simple algebraic counters; we accept two such
// shapes: a small number of long phases (counter comparisons against
// iteration thresholds) and short-period cyclic patterns (counter
// modulo comparisons).

// SegClass classifies a segment of a branch's iteration space.
type SegClass int

const (
	// SegTaken: the branch is taken with frequency ≥ BiasedMin here.
	SegTaken SegClass = iota
	// SegNotTaken: taken with frequency ≤ 1-BiasedMin.
	SegNotTaken
	// SegMixed: anomalous/irregular behaviour — the paper leaves these
	// sections on the plain 2-bit hardware predictor (or guards them).
	SegMixed
)

// String names the class for reports.
func (c SegClass) String() string {
	switch c {
	case SegTaken:
		return "taken"
	case SegNotTaken:
		return "not-taken"
	}
	return "mixed"
}

// Segment is a phase [Start, End) of a branch's occurrence index space.
type Segment struct {
	Start, End int
	Class      SegClass
	TakenFreq  float64
}

// Len returns the segment's length in occurrences.
func (s Segment) Len() int { return s.End - s.Start }

// SegmentOptions tunes segmentation and instrumentability detection.
type SegmentOptions struct {
	// Window is the smoothing window in occurrences; 0 picks
	// max(8, n/32) capped at 256.
	Window int
	// BiasedMin is the per-window taken (or not-taken) frequency that
	// classifies it as biased. Default 0.80.
	BiasedMin float64
	// MaxPhases is the largest number of phases the split-branch
	// transform will instrument. Default 4 (the paper's example uses 3).
	MaxPhases int
	// MinSegFrac: segments shorter than this fraction of the total are
	// absorbed into their left neighbour. Default 0.05.
	MinSegFrac float64
	// MaxPeriod bounds cyclic-pattern search. Default 8.
	MaxPeriod int
	// PeriodicMatch is the agreement rate required to call a trace
	// periodic. Default 0.95.
	PeriodicMatch float64
}

func (o SegmentOptions) withDefaults(n int) SegmentOptions {
	if o.Window <= 0 {
		o.Window = n / 32
		if o.Window < 8 {
			o.Window = 8
		}
		if o.Window > 256 {
			o.Window = 256
		}
	}
	if o.BiasedMin == 0 {
		o.BiasedMin = 0.80
	}
	if o.MaxPhases == 0 {
		o.MaxPhases = 4
	}
	if o.MinSegFrac == 0 {
		o.MinSegFrac = 0.05
	}
	if o.MaxPeriod == 0 {
		o.MaxPeriod = 8
	}
	if o.PeriodicMatch == 0 {
		o.PeriodicMatch = 0.95
	}
	return o
}

// Segments partitions the branch's occurrence history into maximal runs
// of windows with the same class, then absorbs segments shorter than
// MinSegFrac of the total into their left neighbour. Aggregate taken
// frequencies are recomputed from the raw outcomes.
func (bp *BranchProfile) Segments(opt SegmentOptions) []Segment {
	n := bp.Outcomes.Len()
	if n == 0 {
		return nil
	}
	opt = opt.withDefaults(n)
	w := opt.Window
	// The vector's rank samples bound every count below to a few
	// popcounts at each end, whatever the range.
	v := bp.Outcomes

	classify := func(freq float64) SegClass {
		switch {
		case freq >= opt.BiasedMin:
			return SegTaken
		case freq <= 1-opt.BiasedMin:
			return SegNotTaken
		}
		return SegMixed
	}

	var segs []Segment
	for start := 0; start < n; start += w {
		end := start + w
		if end > n {
			end = n
		}
		freq := float64(v.CountRange(start, end)) / float64(end-start)
		cls := classify(freq)
		if len(segs) > 0 && segs[len(segs)-1].Class == cls {
			segs[len(segs)-1].End = end
		} else {
			segs = append(segs, Segment{Start: start, End: end, Class: cls})
		}
	}

	// Absorb runt segments into the left neighbour (the first segment
	// absorbs rightward instead).
	minLen := int(opt.MinSegFrac * float64(n))
	for changed := true; changed && len(segs) > 1; {
		changed = false
		for i := 0; i < len(segs); i++ {
			if segs[i].Len() >= minLen {
				continue
			}
			if i == 0 {
				segs[1].Start = segs[0].Start
				segs = segs[1:]
			} else {
				segs[i-1].End = segs[i].End
				segs = append(segs[:i], segs[i+1:]...)
			}
			changed = true
			break
		}
	}
	// Merge neighbours that ended up with the same class, then refresh
	// frequencies and classes from the raw data.
	for i := 0; i < len(segs); i++ {
		taken := v.CountRange(segs[i].Start, segs[i].End)
		segs[i].TakenFreq = float64(taken) / float64(segs[i].Len())
		segs[i].Class = classify(segs[i].TakenFreq)
	}
	merged := segs[:0]
	for _, s := range segs {
		if len(merged) > 0 && merged[len(merged)-1].Class == s.Class {
			last := &merged[len(merged)-1]
			total := last.Len() + s.Len()
			last.TakenFreq = (last.TakenFreq*float64(last.Len()) + s.TakenFreq*float64(s.Len())) / float64(total)
			last.End = s.End
		} else {
			merged = append(merged, s)
		}
	}
	return merged
}

// Periodicity describes a short cyclic toggle pattern: outcome i is
// (approximately) Pattern[i mod Period].
type Periodicity struct {
	Period    int
	Pattern   []bool
	MatchRate float64
}

// DetectPeriod searches for the smallest period 2..MaxPeriod whose
// majority pattern agrees with at least PeriodicMatch of the trace.
// Constant patterns are rejected (they are monotonic, not periodic).
func (bp *BranchProfile) DetectPeriod(opt SegmentOptions) (Periodicity, bool) {
	n := bp.Outcomes.Len()
	opt = opt.withDefaults(n)
	if n < 4*2 {
		return Periodicity{}, false
	}
	for p := 2; p <= opt.MaxPeriod && p*4 <= n; p++ {
		takenPerSlot := make([]int, p)
		countPerSlot := make([]int, p)
		// Word-cursor scan: one memory load per 64 outcomes and an
		// incrementing slot counter instead of a div per bit.
		var w uint64
		for i, s := 0, 0; i < n; i++ {
			if i&63 == 0 {
				w = bp.Outcomes.words[i>>6]
			}
			countPerSlot[s]++
			if w&1 != 0 {
				takenPerSlot[s]++
			}
			w >>= 1
			if s++; s == p {
				s = 0
			}
		}
		pattern := make([]bool, p)
		constant := true
		agree := 0
		for s := 0; s < p; s++ {
			pattern[s] = takenPerSlot[s]*2 >= countPerSlot[s]
			if pattern[s] != pattern[0] {
				constant = false
			}
			if pattern[s] {
				agree += takenPerSlot[s]
			} else {
				agree += countPerSlot[s] - takenPerSlot[s]
			}
		}
		if constant {
			continue
		}
		rate := float64(agree) / float64(n)
		if rate >= opt.PeriodicMatch {
			return Periodicity{Period: p, Pattern: pattern, MatchRate: rate}, true
		}
	}
	return Periodicity{}, false
}

// InstrKind says which algebraic shape made the branch instrumentable.
type InstrKind int

const (
	// InstrPhases: a few long phases, steered by iteration-count
	// comparisons (Fig. 3/7: p2 = i < 40, p3 = i > 60).
	InstrPhases InstrKind = iota
	// InstrPeriodic: a short cyclic pattern, steered by a counter
	// modulo comparison.
	InstrPeriodic
)

// Instrumentation is the evidence handed to the split-branch transform.
type Instrumentation struct {
	Kind     InstrKind
	Segments []Segment // InstrPhases
	Periodic Periodicity
}

// Instrumentable implements the instrumentable(bj) predicate of Fig. 6:
// it reports whether the branch's toggle pattern is regular enough to
// express with simple algebraic counters, and if so how. A branch is
// instrumentable when either
//
//   - its history is periodic with a small period (InstrPeriodic), or
//   - it segments into 2..MaxPhases phases of which at least one is
//     biased — so there is a predictable section for branch-likely code
//     to exploit (InstrPhases).
//
// Complex patterns ("do not follow any specific progression", §5)
// return ok=false and are left to the hardware predictor.
func (bp *BranchProfile) Instrumentable(opt SegmentOptions) (Instrumentation, bool) {
	if per, ok := bp.DetectPeriod(opt); ok {
		return Instrumentation{Kind: InstrPeriodic, Periodic: per}, true
	}
	segs := bp.Segments(opt)
	o := opt.withDefaults(bp.Outcomes.Len())
	if len(segs) < 2 || len(segs) > o.MaxPhases {
		return Instrumentation{}, false
	}
	biased := false
	for _, s := range segs {
		if s.Class != SegMixed {
			biased = true
			break
		}
	}
	if !biased {
		return Instrumentation{}, false
	}
	return Instrumentation{Kind: InstrPhases, Segments: segs}, true
}
