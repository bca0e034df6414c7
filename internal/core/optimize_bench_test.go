package core_test

import (
	"testing"

	"specguard/internal/bench"
	"specguard/internal/core"
)

// BenchmarkOptimize measures the optimizer layer on its own: one
// core.Optimize of each kernel under its default options, legality
// audit included, over the kernel's profile. Building the fresh
// program each run rewrites is not timed.
func BenchmarkOptimize(b *testing.B) {
	r := bench.NewRunner()
	for _, w := range bench.All() {
		prof, err := r.ProfileOf(w)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(w.Name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				p := w.Build()
				b.StartTimer()
				if _, err := core.Optimize(p, prof, r.Model, w.Opt); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
