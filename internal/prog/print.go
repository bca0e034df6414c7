package prog

import "strconv"

// String renders the program in the assembly syntax accepted by
// internal/asm, suitable for dumping before/after transformation.
func (p *Program) String() string { return string(p.appendText(nil, nil)) }

// String renders one function.
func (f *Func) String() string { return string(f.appendText(nil, nil)) }

// String renders the region in the assembler's .region syntax.
func (r Region) String() string { return string(r.appendText(nil)) }

// appendText is the one program printer behind String and Fingerprint:
// the regions in address order, then the functions separated by blank
// lines. It appends the text to dst; with sum non-nil it streams
// instead, folding every finished line into the FNV-64a hash *sum and
// cutting it from dst, so the text is never held whole.
func (p *Program) appendText(dst []byte, sum *uint64) []byte {
	for _, r := range SortedRegions(p.Regions) {
		dst = endLine(r.appendText(dst), sum)
	}
	for i, f := range p.Funcs {
		if i > 0 {
			dst = endLine(dst, sum)
		}
		dst = f.appendText(dst, sum)
	}
	return dst
}

// appendText prints one function, streaming as Program.appendText does.
func (f *Func) appendText(dst []byte, sum *uint64) []byte {
	dst = append(append(dst, "func "...), f.Name...)
	dst = endLine(append(dst, ':'), sum)
	for _, blk := range f.Blocks {
		dst = endLine(append(append(dst, blk.Name...), ':'), sum)
		for _, in := range blk.Instrs {
			dst = endLine(in.AppendText(append(dst, '\t')), sum)
		}
	}
	return dst
}

// appendText prints the region's .region directive.
func (r Region) appendText(dst []byte) []byte {
	dst = append(append(dst, ".region "...), r.Name...)
	dst = strconv.AppendInt(append(dst, ' '), r.Base, 10)
	dst = strconv.AppendInt(append(dst, ' '), r.Len, 10)
	return append(append(dst, ' '), r.class()...)
}

// endLine terminates the line at the end of dst. When streaming (sum
// non-nil), dst holds only that line: it is hashed and dst is reset.
func endLine(dst []byte, sum *uint64) []byte {
	dst = append(dst, '\n')
	if sum == nil {
		return dst
	}
	*sum = fnv64a(*sum, dst)
	return dst[:0]
}
