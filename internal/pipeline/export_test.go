package pipeline

// WindowMemPeak drains src through the decode window a drain of cfgs
// would use, with no lanes attached (the window's pre-pass state
// depends only on how far it has decoded), and reports the peak
// occupancy of its disambiguation table after any refill, the table's
// final capacity, and the window's chunk and horizon.
func WindowMemPeak(src Source, cfgs []Config) (peak, capacity int, chunk, horizon int64, err error) {
	lanes, err := newLanes(cfgs)
	if err != nil {
		return 0, 0, 0, 0, err
	}
	chunk, horizon = geometry(lanes...)
	releaseLanes(lanes)
	w := newWindow(src, chunk, horizon)
	for !w.eof && w.err == nil {
		w.refill()
		peak = max(peak, w.memLast.used)
	}
	return peak, len(w.memLast.slots), chunk, horizon, w.err
}

// StartICache attaches lanes of cfgs to a window over src as a drain
// does, reports whether the window built a shared icache and which lanes
// read it, then releases the lanes and the window without running.
func StartICache(cfgs []Config, src Source) (windowIC bool, shared []bool, err error) {
	lanes, err := newLanes(cfgs)
	if err != nil {
		return false, nil, err
	}
	w := start(src, lanes...)
	windowIC = w.ic != nil
	for _, p := range lanes {
		shared = append(shared, p.icShared)
	}
	releaseLanes(lanes)
	putWindow(w)
	return windowIC, shared, nil
}

// newLanes builds one lane per Config, as a drain does.
func newLanes(cfgs []Config) ([]*Pipeline, error) {
	var lanes []*Pipeline
	for _, cfg := range cfgs {
		p, err := New(cfg)
		if err != nil {
			releaseLanes(lanes)
			return nil, err
		}
		lanes = append(lanes, p)
	}
	return lanes, nil
}

// releaseLanes returns lanes to the lane free list.
func releaseLanes(lanes []*Pipeline) {
	for _, p := range lanes {
		p.release()
	}
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

// DropFreeWindows empties the window free list, so the windows drains
// take next are new.
func DropFreeWindows() {
	freeWindows.mu.Lock()
	freeWindows.items = nil
	freeWindows.mu.Unlock()
}

// FreeWindows returns how many released windows the free list holds.
func FreeWindows() int {
	freeWindows.mu.Lock()
	defer freeWindows.mu.Unlock()
	return len(freeWindows.items)
}
