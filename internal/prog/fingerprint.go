package prog

// FNV-64a parameters (hash/fnv's New64a).
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// fnv64a folds b into the FNV-64a hash h.
func fnv64a[T string | []byte](h uint64, b T) uint64 {
	for i := 0; i < len(b); i++ {
		h ^= uint64(b[i])
		h *= fnvPrime64
	}
	return h
}

// Fingerprint returns the FNV-64a digest of the program's entry point,
// a NUL byte and its full printed IR. Two programs with equal
// fingerprints execute identically (the printer is a faithful
// round-trippable rendering), which is what the experiment harness
// keys its program cache on: the original program produces one
// fingerprint across every predictor configuration, while each
// optimizer rewrite produces its own. The printed text is streamed
// into the hash one line at a time, never built whole.
func (p *Program) Fingerprint() uint64 {
	h := fnv64a(fnvOffset64, p.Entry)
	h = fnv64a(h, "\x00")
	var line [128]byte
	p.appendText(line[:0], &h)
	return h
}
