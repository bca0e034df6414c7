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
