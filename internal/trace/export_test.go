package trace

import "reflect"

// StreamDiff names the first of a's streams that differs from b's,
// block for block, or returns "" when all four are equal.
func StreamDiff(a, b *Trace) string {
	for _, s := range []struct {
		name string
		a, b any
	}{{"branch", a.branch, b.branch}, {"annul", a.annul, b.annul}, {"mem", a.mem, b.mem}, {"ctrl", a.ctrl, b.ctrl}} {
		if !reflect.DeepEqual(s.a, s.b) {
			return s.name
		}
	}
	return ""
}
