package main

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// The host's speed drifts by up to 2x over minutes on a shared VM, wall
// and CPU time alike, and a run cannot outlast the drift. So every timing
// is reported at a nominal host speed: each measuring process also times
// a fixed reference kernel, interleaved with its operations, and scales
// its timings by the nominal reference time over the measured one. The
// kernel is standard-library code only, so no change to the repository
// changes it, and it runs between operations, never beside them.
//
// refNominalWallMS and refNominalCPUMS are round numbers near the
// kernel's median wall and CPU time per sample on a 2-vCPU Firecracker
// VM (Go 1.24). They only set the scale: a reported time reads as the
// time that host would have taken while the kernel ran at those speeds.
const (
	refNominalWallMS = 60.0
	refNominalCPUMS  = 120.0
)

// hostRef holds a process's reference samples, in ms.
type hostRef struct{ wall, cpu []float64 }

// refSink keeps the kernel's results live.
var refSink atomic.Uint64

// sample times n runs of the reference kernel, each on GOMAXPROCS
// goroutines at once, as the workloads use the cores. A nil *hostRef
// (a traced run) samples nothing.
func (h *hostRef) sample(n int) {
	for i := 0; h != nil && i < n; i++ {
		c0, t0 := cpuTime(), time.Now()
		var wg sync.WaitGroup
		for g := 0; g < runtime.GOMAXPROCS(0); g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				refSink.Add(refLoop() + refMap())
			}()
		}
		wg.Wait()
		h.wall = append(h.wall, ms(time.Since(t0)))
		h.cpu = append(h.cpu, ms(cpuTime()-c0))
	}
}

// factors returns the wall and CPU scale: nominal over measured median.
// A time is multiplied by its factor, a rate divided by it. A nil
// *hostRef leaves times as measured.
func (h *hostRef) factors() (wall, cpu float64) {
	if h == nil {
		return 1, 1
	}
	return ratio(refNominalWallMS, percentile(h.wall, 0.5)), ratio(refNominalCPUMS, percentile(h.cpu, 0.5))
}

// report describes the samples for a report's extra block.
func (h *hostRef) report() map[string]any {
	wf, cf := h.factors()
	return map[string]any{"wall_ms": summarize(h.wall, "ms"), "cpu_ms": summarize(h.cpu, "ms"), "wall_factor": wf, "cpu_factor": cf}
}

// scaled multiplies a metric's value and quartiles by f.
func scaled(m Metric, f float64) Metric {
	m.Value, m.P25, m.P75 = m.Value*f, m.P25*f, m.P75*f
	return m
}

// refLoop is a branchy bytecode interpreter loop over a few registers,
// as the simulator's own inner loops are.
func refLoop() uint64 {
	code := [...]byte{0, 1, 2, 3, 1, 4, 0, 2, 5, 3, 1, 0, 4, 2, 5, 1}
	var a, b, c uint64 = 1, 2, 3
	for i := 0; i < 300000; i++ {
		for _, op := range code {
			switch op {
			case 0:
				a += b
			case 1:
				if a&1 == 0 {
					b ^= a >> 3
				} else {
					c += a
				}
			case 2:
				c = c*6364136223846793005 + 1
			case 3:
				if c>>60 > 7 {
					a--
				}
			case 4:
				b += c >> 17
			case 5:
				a, b = b, a
			}
		}
	}
	return a + b + c
}

type refNode struct {
	key, val uint64
	next     *refNode
}

// refMap builds and probes a map of heap-allocated nodes from a
// xorshift stream: hashing, pointer loads, allocation and garbage
// collection, as the simulator's bookkeeping does.
func refMap() uint64 {
	m := make(map[uint64]*refNode)
	var sum uint64
	var last *refNode
	x := uint64(88172645463325252)
	for i := 0; i < 400000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		k := x & 0xffff
		if n, ok := m[k]; ok {
			sum += n.val
		} else {
			last = &refNode{key: k, val: x, next: last}
			m[k] = last
		}
	}
	return sum + last.key
}
