package prog

import (
	"fmt"
	"sort"
)

// Region classifies one contiguous range of data memory for the taint
// analysis: Secret regions hold values an attacker must not observe
// (even transiently, through a speculatively issued load), public
// regions are free. Regions are program metadata — the interpreter and
// pipeline ignore them unless leak tracking is enabled.
type Region struct {
	Name   string
	Base   int64 // first byte, word-aligned
	Len    int64 // length in bytes, word-aligned, > 0
	Secret bool
}

// End returns the first byte past the region.
func (r Region) End() int64 { return r.Base + r.Len }

// Contains reports whether addr falls inside the region.
func (r Region) Contains(addr int64) bool { return addr >= r.Base && addr < r.End() }

func (r Region) class() string {
	if r.Secret {
		return "secret"
	}
	return "public"
}

// AddRegion appends a validated region annotation. It returns an error
// for malformed geometry (negative or unaligned bounds, empty length),
// duplicate names, or overlap with an already-declared region of the
// opposite class — one byte cannot be both public and secret.
// Same-class overlap is allowed: annotations frequently nest (a secret
// sub-buffer inside a larger secret heap).
func (p *Program) AddRegion(r Region) error {
	if r.Name == "" {
		return fmt.Errorf("prog: region with empty name")
	}
	if r.Base < 0 || r.Len <= 0 {
		return fmt.Errorf("prog: region %q: bad bounds [%d,%d)", r.Name, r.Base, r.End())
	}
	if r.Base%8 != 0 || r.Len%8 != 0 {
		return fmt.Errorf("prog: region %q: bounds [%d,%d) not word-aligned", r.Name, r.Base, r.End())
	}
	for _, q := range p.Regions {
		if q.Name == r.Name {
			return fmt.Errorf("prog: duplicate region %q", r.Name)
		}
		if q.Secret != r.Secret && r.Base < q.End() && q.Base < r.End() {
			return fmt.Errorf("prog: region %q [%d,%d) overlaps %s region %q [%d,%d)",
				r.Name, r.Base, r.End(), q.class(), q.Name, q.Base, q.End())
		}
	}
	p.Regions = append(p.Regions, r)
	return nil
}

// MustAddRegion is AddRegion for statically known-good annotations
// (workload definitions, tests).
func (p *Program) MustAddRegion(r Region) {
	if err := p.AddRegion(r); err != nil {
		panic(err)
	}
}

// SecretRegions returns the secret-classified regions in declaration
// order.
func (p *Program) SecretRegions() []Region {
	var out []Region
	for _, r := range p.Regions {
		if r.Secret {
			out = append(out, r)
		}
	}
	return out
}

// RegionAt returns the region containing addr. When regions of the same
// class nest, the innermost (smallest) match wins so the most specific
// annotation names the access.
func (p *Program) RegionAt(addr int64) (Region, bool) {
	best := -1
	for i, r := range p.Regions {
		if !r.Contains(addr) {
			continue
		}
		if best < 0 || r.Len < p.Regions[best].Len {
			best = i
		}
	}
	if best < 0 {
		return Region{}, false
	}
	return p.Regions[best], true
}

// SortedRegions returns the regions ordered by (Base, Len) — the
// deterministic order printers and reports use regardless of
// declaration order.
func SortedRegions(regions []Region) []Region {
	out := append([]Region(nil), regions...)
	sort.Slice(out, func(i, j int) bool {
		if out[i].Base != out[j].Base {
			return out[i].Base < out[j].Base
		}
		return out[i].Len < out[j].Len
	})
	return out
}
