package attr

// Heat is the cylinder×angle deflection census of a cycle-accurate run: one
// counter per switching-node column, incremented by the core on every
// deflection-path traversal originating there. Heights are collapsed — the
// paper's congestion story is about where in the descent (cylinder) and
// around the ring (angle) contention concentrates, not which height ring.
//
// The fast analytic model has no per-node resolution, so Heat is present
// only on cycle-accurate runs.
type Heat struct {
	Cylinders int
	Angles    int
	// Cells is row-major [cylinder][angle].
	Cells []int64
}

// Add counts one deflection at (cylinder, angle). Nil-safe, so the switch
// core records unconditionally behind one pointer test.
func (h *Heat) Add(cyl, angle int) {
	if h != nil {
		h.Cells[cyl*h.Angles+angle]++
	}
}

// At returns the count at (cylinder, angle), 0 for a nil Heat.
func (h *Heat) At(cyl, angle int) int64 {
	if h == nil {
		return 0
	}
	return h.Cells[cyl*h.Angles+angle]
}

// Total returns the summed deflection count.
func (h *Heat) Total() int64 {
	if h == nil {
		return 0
	}
	var n int64
	for _, c := range h.Cells {
		n += c
	}
	return n
}
