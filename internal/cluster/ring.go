// Package cluster scales the sgserved experiment service out
// horizontally: a coordinator (cmd/sgcoord) shards the
// content-addressed result keyspace across N sgserved backends with a
// consistent-hash ring, coalesces identical in-flight requests
// cluster-wide with a coordinator-level singleflight layered on top of
// each backend's own, health-checks backends on /readyz with ejection
// and jittered-backoff re-probing, retries idempotent requests on the
// next ring replica, and applies admission control beyond bare 429 —
// a bounded priority queue with per-client fair-share accounting so a
// greedy sweeper cannot starve interactive /v1/run callers.
//
// The shard identity is the serve layer's canonical request key
// (v1|w=…|fp=…|s=…|e=…|o=…[|m=…]): the coordinator derives it with
// serve.NormalizeRequest against the same base machine model the
// backends use, so placement is deterministic and survives coordinator
// restarts — the same key always lands on the same backend while the
// backend set is unchanged.
package cluster

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"sort"
	"strconv"
)

// DefaultVNodes is the virtual-node count per backend.
const DefaultVNodes = 128

// DefaultProbes is the lookup probe count. Plain successor lookup
// inherits the CV≈1/√vnodes skew of random arc lengths (~1.45× max/min
// across 16 backends at 128 vnodes); probing the key k ways and taking
// the closest point (multi-probe consistent hashing) makes the winning
// point nearly uniform over ALL vnode points, which pins the max/min
// key share across 16 backends within 1.35× (TestRingBalance measures
// it) without load-aware placement.
const DefaultProbes = 16

// Ring is an immutable consistent-hash ring: each backend owns VNodes
// points on a uint64 circle, and a key belongs to the backend owning
// the point closest clockwise from the best of the key's probe hashes.
// Placement is a pure function of (backend set, vnodes, probes), so it
// is identical across coordinator restarts and differently-ordered
// backend lists. Membership changes build a new Ring (NewRing);
// multi-probe lookup preserves the minimal-disruption property
// exactly — a new backend's points only ever shrink a probe's
// clockwise distance, so a key's owner either stays or moves onto the
// new backend, never between survivors (TestRingMinimalDisruption
// measures this too).
type Ring struct {
	vnodes   int
	probes   int
	backends []string // sorted, unique
	points   []point  // sorted by hash
}

type point struct {
	hash    uint64
	backend string
}

// hash64 is the ring's placement hash: the first 8 bytes of SHA-256,
// big endian. Cryptographic dispersion matters here — the keys are
// highly structured (shared prefixes, few distinct fields) and a weak
// mixer would clump them onto few arcs.
func hash64(s string) uint64 {
	sum := sha256.Sum256([]byte(s))
	return binary.BigEndian.Uint64(sum[:8])
}

// NewRing builds a ring over the given backends. Backend names are
// deduplicated and sorted, so rings built from differently-ordered
// flag lists place identically. vnodes ≤ 0 means DefaultVNodes.
func NewRing(backends []string, vnodes int) (*Ring, error) {
	if vnodes <= 0 {
		vnodes = DefaultVNodes
	}
	seen := map[string]bool{}
	var uniq []string
	for _, b := range backends {
		if b == "" {
			return nil, fmt.Errorf("cluster: empty backend name")
		}
		if !seen[b] {
			seen[b] = true
			uniq = append(uniq, b)
		}
	}
	if len(uniq) == 0 {
		return nil, fmt.Errorf("cluster: ring needs at least one backend")
	}
	sort.Strings(uniq)
	r := &Ring{vnodes: vnodes, probes: DefaultProbes, backends: uniq}
	r.points = make([]point, 0, len(uniq)*vnodes)
	for _, b := range uniq {
		for i := 0; i < vnodes; i++ {
			r.points = append(r.points, point{hash64(b + "#" + strconv.Itoa(i)), b})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		// A 64-bit collision between vnode points is astronomically
		// unlikely but must still order deterministically.
		return r.points[i].backend < r.points[j].backend
	})
	return r, nil
}

// Backends returns the ring's membership, sorted.
func (r *Ring) Backends() []string {
	out := make([]string, len(r.backends))
	copy(out, r.backends)
	return out
}

// VNodes returns the per-backend virtual-node count.
func (r *Ring) VNodes() int { return r.vnodes }

// succ returns the index of the first point at or clockwise of h.
func (r *Ring) succ(h uint64) int {
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		return 0 // wrap
	}
	return i
}

// winner returns the index of the point closest clockwise from the
// best of key's probe hashes — the point that owns key.
func (r *Ring) winner(key string) int {
	best, bestDist := -1, uint64(0)
	for j := 0; j < r.probes; j++ {
		h := hash64(key + "\x00" + strconv.Itoa(j))
		i := r.succ(h)
		d := r.points[i].hash - h // wraps mod 2^64 on the 0th point
		if best == -1 || d < bestDist || (d == bestDist && i < best) {
			best, bestDist = i, d
		}
	}
	return best
}

// Owner returns the backend that owns key.
func (r *Ring) Owner(key string) string {
	return r.points[r.winner(key)].backend
}

// Replicas returns up to n distinct backends for key, primary first,
// then clockwise ring order from the owning point — the retry sequence
// for idempotent requests when the primary is unhealthy. n ≤ 0 or n
// beyond the membership size means every backend.
func (r *Ring) Replicas(key string, n int) []string {
	if n <= 0 || n > len(r.backends) {
		n = len(r.backends)
	}
	out := make([]string, 0, n)
	seen := map[string]bool{}
	start := r.winner(key)
	for i := 0; len(out) < n && i < len(r.points); i++ {
		b := r.points[(start+i)%len(r.points)].backend
		if !seen[b] {
			seen[b] = true
			out = append(out, b)
		}
	}
	return out
}

// Shares estimates each backend's share of the keyspace by placing a
// deterministic pseudo-random key sample (multi-probe ownership has no
// closed-form arc measure). Used by the balance tests and surfaced on
// /cluster/state so operators can see placement skew.
func (r *Ring) Shares(sample int) map[string]float64 {
	if sample <= 0 {
		sample = 4096
	}
	shares := make(map[string]float64, len(r.backends))
	for i := 0; i < sample; i++ {
		shares[r.Owner("share-sample-"+strconv.Itoa(i))] += 1 / float64(sample)
	}
	return shares
}
