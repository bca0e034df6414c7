package pipeline

// WindowMemPeak drains src through the decode window a Batch of cfgs
// would use, with no lanes attached (the window's pre-pass state
// depends only on how far it has decoded), and reports the peak
// occupancy of its disambiguation table after any refill, the table's
// final capacity, and the window's chunk and horizon.
func WindowMemPeak(src Source, cfgs []Config) (peak, capacity int, chunk, horizon int64, err error) {
	b, err := NewBatch(cfgs)
	if err != nil {
		return 0, 0, 0, 0, err
	}
	chunk, horizon = geometry(b.lanes...)
	w := newWindow(src, chunk, horizon)
	for !w.eof && w.err == nil {
		w.refill()
		peak = max(peak, w.memLast.used)
	}
	return peak, len(w.memLast.slots), chunk, horizon, w.err
}

// StartICache attaches b's lanes to a window over src as a drain does,
// reports whether the window built a shared icache and which lanes read
// it, then detaches them and releases the window without running.
func StartICache(b *Batch, src Source) (windowIC bool, shared []bool) {
	w := start(src, b.lanes...)
	windowIC = w.ic != nil
	for _, p := range b.lanes {
		shared = append(shared, p.icShared)
		p.win, p.icShared = nil, false
	}
	putWindow(w)
	return windowIC, shared
}

// DropFreeLanes empties the lane free list, so the lanes New builds next
// are new.
func DropFreeLanes() {
	freeLanes.mu.Lock()
	freeLanes.items = nil
	freeLanes.mu.Unlock()
}

// FreeLanes returns how many released lanes the free list holds.
func FreeLanes() int {
	freeLanes.mu.Lock()
	defer freeLanes.mu.Unlock()
	return len(freeLanes.items)
}
