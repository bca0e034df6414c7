package pipeline

import (
	"fmt"
	"testing"

	"specguard/internal/asm"
	"specguard/internal/interp"
	"specguard/internal/machine"
	"specguard/internal/predict"
	"specguard/internal/trace"
)

// speedKernel is the shared ~350k-event benchmark program.
const speedKernel = `
func main:
entry:
	li r1, 0
	li r5, 9000
loop:
	lw r3, 0(r5)
	add r3, r3, 1
	sw r3, 0(r5)
	and r2, r1, 7
	beq r2, 0, sp
pl:
	add r4, r4, 1
	j next
sp:
	add r6, r6, 1
next:
	add r1, r1, 1
	blt r1, 50000, loop
exit:
	halt
`

// BenchmarkPipe is the headline simulation benchmark: one full
// (functional + timing) run of a ~175k-instruction kernel per
// iteration. The program is parsed and predecoded once — per-process
// work, like the bench workload cache — so each iteration measures the
// simulation itself: machine reset, lockstep execution decoded straight
// into the window's event slots, and the pipeline hot loop.
func BenchmarkPipe(b *testing.B) {
	code, err := interp.Predecode(asm.MustParse(speedKernel), nil)
	if err != nil {
		b.Fatal(err)
	}
	m := code.NewMachine(interp.Options{})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Reset()
		pipe, err := New(Config{Model: machine.R10000(), Predictor: predict.NewTwoBit(512)})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := pipe.Run(NewMachineSource(m)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBatchPipe measures batched drains at N ∈
// {1, 4, 8, 24} lanes over one packed-trace replay of the same kernel
// as BenchmarkPipe. The reported Minstr/s metric is aggregate lane
// throughput (events × lanes / wall), so the batching win shows up as
// the multiple over the one-lane figure: the decode and dependence
// pre-pass is paid once per drain regardless of N.
func BenchmarkBatchPipe(b *testing.B) {
	code, err := interp.Predecode(asm.MustParse(speedKernel), nil)
	if err != nil {
		b.Fatal(err)
	}
	tr, _, err := trace.Capture(code, interp.Options{}, nil, nil)
	if err != nil {
		b.Fatal(err)
	}
	for _, lanes := range []int{1, 4, 8, 24} {
		b.Run(fmt.Sprintf("lanes=%d", lanes), func(b *testing.B) {
			// Alternate two table sizes so lanes genuinely differ.
			sizes := make([]int, lanes)
			for i := range sizes {
				sizes[i] = 512 << uint(i%2)
			}
			preds := predict.NewTwoBitLanes(sizes)
			cfgs := make([]Config, lanes)
			for i := range cfgs {
				cfgs[i] = Config{Model: machine.R10000(), Predictor: preds[i]}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, pr := range preds {
					pr.Reset()
				}
				batch, err := NewBatch(cfgs)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := batch.Run(tr.NewReader()); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			laneEvents := float64(tr.Events()) * float64(lanes) * float64(b.N)
			b.ReportMetric(laneEvents/b.Elapsed().Seconds()/1e6, "Minstr/s")
		})
	}
}
