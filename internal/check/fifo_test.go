package check_test

import "testing"

// TestFIFOMirrorSteadyStateAllocs: the checker's mirror of a VIC's surprise
// FIFO is a ring, so once it has seen its deepest backlog, pushes and pops
// allocate nothing (a slice popped by re-slicing re-allocated its tail every
// time the head caught up with it).
func TestFIFOMirrorSteadyStateAllocs(t *testing.T) {
	rig := newVICRig(1, 0)
	v := rig.vics[0]
	next, head := uint64(0), uint64(0)
	burst := func() {
		// 10^5 interleaved pushes and pops, backlog between 0 and 64.
		for round := 0; round < 1000; round++ {
			depth := 1 + round%64
			for i := 0; i < depth; i++ {
				rig.chk.FIFOPush(v, 0, next, false)
				next++
			}
			for i := 0; i < depth; i++ {
				rig.chk.FIFOPop(v, head)
				head++
			}
		}
	}
	burst() // warm-up: the ring reaches its high-water capacity
	if avg := testing.AllocsPerRun(3, burst); avg != 0 {
		t.Errorf("FIFO mirror allocated %.1f times per burst once warm, want 0", avg)
	}
	if res := rig.chk.Finalize(); !res.Ok() {
		t.Fatalf("in-order pops raised violations:\n%s", res)
	}
}

// TestFIFOReorderReportsOnce: a pop out of order is one violation, and the
// mirror resynchronises on the popped word so the pops that follow, in
// order, raise none.
func TestFIFOReorderReportsOnce(t *testing.T) {
	rig := newVICRig(1, 0)
	v := rig.vics[0]
	for w := uint64(1); w <= 5; w++ {
		rig.chk.FIFOPush(v, 0, w, false)
	}
	for _, w := range []uint64{3, 1, 2, 4, 5} {
		rig.chk.FIFOPop(v, w)
	}
	rig.chk.FIFOPop(v, 6) // nothing outstanding
	res := rig.chk.Finalize()
	if res.Total != 2 || !hasInvariant(res, "fifo-order") {
		t.Fatalf("want one reorder and one empty-pop violation, got:\n%s", res)
	}
}
