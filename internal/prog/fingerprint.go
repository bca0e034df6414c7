package prog

import "hash/fnv"

// Fingerprint returns a digest of the program's entry point and full
// printed IR. Two programs with equal fingerprints execute identically
// (the printer is a faithful round-trippable rendering), which is what
// the experiment harness keys its program cache on: the original
// program produces one fingerprint across every predictor
// configuration, while each optimizer rewrite produces its own.
func (p *Program) Fingerprint() uint64 {
	h := fnv.New64a()
	h.Write([]byte(p.Entry))
	h.Write([]byte{0})
	h.Write([]byte(p.String()))
	return h.Sum64()
}
