package pipeline

import (
	"runtime"
	"sync"
)

// freeList recycles released objects across drains: decode windows
// (freeWindows) and timing lanes (freeLanes). It is a plain slice, not a
// sync.Pool: a GC empties a Pool, and the sweeps that need reuse are
// exactly the allocation-heavy phases that trigger one. It holds at most
// perProc × GOMAXPROCS objects, the most that can be live at once (at
// most GOMAXPROCS drains run at a time), so an idle process keeps no
// more than one full round of drains' worth.
type freeList[T any] struct {
	mu      sync.Mutex
	items   []T
	perProc int
}

// get removes and returns the most recently released object that fits,
// else the most recently released one; ok is false when the list is
// empty.
func (l *freeList[T]) get(fits func(T) bool) (x T, ok bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := len(l.items)
	if n == 0 {
		return x, false
	}
	i := n - 1
	for j := n - 1; j >= 0; j-- {
		if fits(l.items[j]) {
			i = j
			break
		}
	}
	x = l.items[i]
	l.items[i] = l.items[n-1]
	var zero T
	l.items[n-1] = zero
	l.items = l.items[:n-1]
	return x, true
}

// put releases x to the list, or drops it when the list is full.
func (l *freeList[T]) put(x T) {
	l.mu.Lock()
	if len(l.items) < l.perProc*runtime.GOMAXPROCS(0) {
		l.items = append(l.items, x)
	}
	l.mu.Unlock()
}
