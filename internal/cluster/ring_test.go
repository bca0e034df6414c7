package cluster

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

func testBackends(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("http://10.0.0.%d:8080", i+1)
	}
	return out
}

// TestRingBalance pins the load-balance property the multi-probe
// lookup was chosen for: across 16 backends at 128 vnodes, the largest
// measured key share is within 1.35× the smallest. Shares are measured
// over a 50 000-key deterministic sample.
func TestRingBalance(t *testing.T) {
	r, err := NewRing(testBackends(16), 128)
	if err != nil {
		t.Fatal(err)
	}
	shares := r.Shares(50000)
	if len(shares) != 16 {
		t.Fatalf("shares cover %d backends, want 16", len(shares))
	}
	minShare, maxShare, total := math.Inf(1), 0.0, 0.0
	for b, share := range shares {
		total += share
		minShare = math.Min(minShare, share)
		maxShare = math.Max(maxShare, share)
		if share <= 0 {
			t.Errorf("backend %s owns a non-positive share %g", b, share)
		}
	}
	if math.Abs(total-1) > 1e-6 {
		t.Errorf("shares sum to %g, want 1", total)
	}
	if ratio := maxShare / minShare; ratio > 1.35 {
		t.Errorf("max/min key share = %.4f, want ≤ 1.35 (max %.5f, min %.5f)",
			ratio, maxShare, minShare)
	}
}

// TestRingBalanceAcrossSizes keeps the skew bounded over a range of
// cluster sizes, not just the pinned 16-backend point.
func TestRingBalanceAcrossSizes(t *testing.T) {
	for _, n := range []int{2, 3, 5, 8, 16, 32} {
		r, err := NewRing(testBackends(n), 128)
		if err != nil {
			t.Fatal(err)
		}
		minShare, maxShare := math.Inf(1), 0.0
		for _, share := range r.Shares(20000) {
			minShare = math.Min(minShare, share)
			maxShare = math.Max(maxShare, share)
		}
		if ratio := maxShare / minShare; ratio > 1.35 {
			t.Errorf("%d backends: max/min share = %.4f, want ≤ 1.35", n, ratio)
		}
	}
}

// TestRingMinimalDisruption measures — rather than assumes — the
// consistent-hashing contract: adding one backend moves keys only ONTO
// the new backend (nothing migrates between survivors), removing one
// moves only that backend's keys, and the moved fraction is close to
// the newcomer's fair share.
func TestRingMinimalDisruption(t *testing.T) {
	base, err := NewRing(testBackends(16), 128)
	if err != nil {
		t.Fatal(err)
	}
	const newcomer = "http://10.0.0.17:8080"
	grown, err := NewRing(append(base.Backends(), newcomer), 128)
	if err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(42))
	const keys = 20000
	moved := 0
	for i := 0; i < keys; i++ {
		key := fmt.Sprintf("v1|w=wl%d|fp=%016x|s=2-bitBP|e=%d|o=default",
			i%7, rng.Uint64(), 1<<uint(rng.Intn(12)))
		before, after := base.Owner(key), grown.Owner(key)
		if before != after {
			moved++
			if after != newcomer {
				t.Fatalf("key %q migrated %s → %s: survivors must not exchange keys on grow",
					key, before, after)
			}
		}
	}
	// The newcomer should absorb roughly its fair share, 1/17 ≈ 5.9%.
	frac := float64(moved) / keys
	if frac == 0 || frac > 2.0/17 {
		t.Errorf("grow moved %.2f%% of keys, want ≈ %.2f%% (0 < moved ≤ 2× fair share)",
			100*frac, 100.0/17)
	}

	// Removal: keys change owner only if the removed backend owned them.
	rest := base.Backends()
	removed := rest[3]
	shrunk, err := NewRing(slices.Delete(rest, 3, 4), 128)
	if err != nil {
		t.Fatal(err)
	}
	rng = rand.New(rand.NewSource(43))
	movedOff := 0
	for i := 0; i < keys; i++ {
		key := fmt.Sprintf("v1|w=wl%d|fp=%016x|s=Proposed|e=2048|o=default", i%7, rng.Uint64())
		before, after := base.Owner(key), shrunk.Owner(key)
		if before != after {
			movedOff++
			if before != removed {
				t.Fatalf("key %q migrated %s → %s: only the removed backend's arc may move",
					key, before, after)
			}
		}
	}
	if movedOff == 0 {
		t.Error("removal moved no keys at all — the removed backend owned nothing?")
	}
}

// TestRingDeterminism pins restart-stable placement: rings built from
// permuted backend lists, in separate processes-worth of state, place
// every key identically.
func TestRingDeterminism(t *testing.T) {
	b := testBackends(5)
	r1, _ := NewRing([]string{b[0], b[1], b[2], b[3], b[4]}, 64)
	r2, _ := NewRing([]string{b[4], b[2], b[0], b[3], b[1], b[1]}, 64) // permuted + dup
	for i := 0; i < 1000; i++ {
		key := fmt.Sprintf("key-%d", i)
		if r1.Owner(key) != r2.Owner(key) {
			t.Fatalf("key %q: %s vs %s for permuted construction", key, r1.Owner(key), r2.Owner(key))
		}
	}
}

// TestRingReplicas pins the retry sequence: primary first, all
// distinct, every backend reachable when n is unbounded.
func TestRingReplicas(t *testing.T) {
	r, err := NewRing(testBackends(4), 32)
	if err != nil {
		t.Fatal(err)
	}
	reps := r.Replicas("some-key", 0)
	if len(reps) != 4 {
		t.Fatalf("Replicas(0) = %d backends, want 4", len(reps))
	}
	if reps[0] != r.Owner("some-key") {
		t.Errorf("first replica %s is not the owner %s", reps[0], r.Owner("some-key"))
	}
	seen := map[string]bool{}
	for _, b := range reps {
		if seen[b] {
			t.Errorf("duplicate replica %s", b)
		}
		seen[b] = true
	}
	if got := r.Replicas("some-key", 2); len(got) != 2 {
		t.Errorf("Replicas(2) = %d backends, want 2", len(got))
	}
}
