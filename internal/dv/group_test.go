package dv

import (
	"testing"

	"repro/internal/sim"
	"repro/internal/vic"
)

func TestSubsetBarrierSynchronisesMembersOnly(t *testing.T) {
	const n = 8
	members := []int{1, 3, 4, 6}
	tb := newTestbed(n)
	entry := make([]sim.Time, n)
	exit := make([]sim.Time, n)
	nonMemberDone := make([]sim.Time, n)
	tb.spmd(func(e *Endpoint) {
		isMember := false
		for _, m := range members {
			if m == e.Rank() {
				isMember = true
			}
		}
		if !isMember {
			// Non-members do unrelated work and finish early; the subset
			// barrier must not involve them.
			e.Proc().Wait(sim.Time(e.Rank()) * 10 * sim.Nanosecond)
			nonMemberDone[e.Rank()] = e.Proc().Now()
			return
		}
		g := NewGroup(e, members)
		e.Barrier() // global fence so every member's counters are armed
		e.Proc().Wait(sim.Time(e.Rank()) * 300 * sim.Nanosecond)
		entry[e.Rank()] = e.Proc().Now()
		g.Barrier()
		exit[e.Rank()] = e.Proc().Now()
	})
	var lastEntry sim.Time
	for _, m := range members {
		if entry[m] > lastEntry {
			lastEntry = entry[m]
		}
	}
	for _, m := range members {
		if exit[m] < lastEntry {
			t.Fatalf("member %d exited at %v before last entry %v", m, exit[m], lastEntry)
		}
	}
	for _, d := range nonMemberDone {
		if d > sim.Microsecond {
			t.Fatalf("non-member was delayed: %v", d)
		}
	}
}

func TestSubsetBarrierRepeated(t *testing.T) {
	const n = 6
	members := []int{0, 2, 5}
	tb := newTestbed(n)
	phase := make([]int, n)
	violated := false
	tb.spmd(func(e *Endpoint) {
		isMember := e.Rank() == 0 || e.Rank() == 2 || e.Rank() == 5
		if !isMember {
			return
		}
		g := NewGroup(e, members)
		e.Barrier()
		rng := sim.NewRNG(uint64(e.Rank() + 1))
		for it := 0; it < 10; it++ {
			e.Proc().Wait(sim.Time(rng.Intn(1500)) * sim.Nanosecond)
			phase[e.Rank()]++
			g.Barrier()
			for _, m := range members {
				if phase[m] != it+1 {
					violated = true
				}
			}
			g.Barrier()
		}
	})
	if violated {
		t.Fatal("subset barrier failed to synchronise")
	}
}

func TestGroupRequiresMembership(t *testing.T) {
	tb := newTestbed(2)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewGroup(tb.eps[0], []int{1}) // rank 0 not in the member list
}

func TestSingletonGroupBarrierIsFree(t *testing.T) {
	tb := newTestbed(2)
	tb.spmd(func(e *Endpoint) {
		if e.Rank() != 0 {
			return
		}
		g := NewGroup(e, []int{0})
		t0 := e.Proc().Now()
		g.Barrier()
		if e.Proc().Now() != t0 {
			t.Error("singleton barrier should be free")
		}
	})
}

// TestGroupCounterRaceHazard reproduces the pitfall the paper documents in
// §III: group counters are globally settable, but if the "set group
// counter" control packet races the data packets, arrivals consumed before
// the counter is armed are lost to the count — "even though the transfer
// would complete, the destination VIC group counter would never reach
// zero". The documented remedy (arm locally, then barrier) works.
func TestGroupCounterRaceHazard(t *testing.T) {
	tb := newTestbed(3)
	const words = 64
	var stuck int64
	var dataIntact, remedyWorks bool
	tb.spmd(func(e *Endpoint) {
		gc := e.AllocGC()
		slot := e.Alloc(words)
		e.Barrier()
		switch e.Rank() {
		case 0:
			// Data flows immediately...
			vals := make([]uint64, words)
			for i := range vals {
				vals[i] = uint64(i)
			}
			e.Put(vic.DMACached, 1, slot, gc, vals)
		case 2:
			// ...while the counter-arming control packet arrives mid-burst.
			e.Proc().Wait(2 * sim.Microsecond)
			e.Scatter(vic.PIO, []vic.Word{{Dst: 1, Op: vic.OpSetGC, GC: vic.NoGC, Addr: uint32(gc), Val: words}})
		case 1:
			// By 10µs the counter has "surely" been armed and the data has
			// surely arrived — yet the count never reaches zero, because
			// the arrivals beat the arming packet.
			e.Proc().Wait(10 * sim.Microsecond)
			if e.WaitGC(gc, 20*sim.Microsecond) {
				stuck = -1 // no hazard: counter drained
			} else {
				stuck = e.GCValue(gc)
			}
			got := e.Read(slot, words)
			dataIntact = true
			for i, v := range got {
				if v != uint64(i) {
					dataIntact = false
				}
			}
		}
		e.Barrier()
		// REMEDY: the receiver arms its own counter, then a barrier fences
		// the arming from the data.
		gc2 := e.AllocGC()
		slot2 := e.Alloc(words)
		if e.Rank() == 1 {
			e.ArmGC(gc2, words)
		}
		e.Barrier()
		if e.Rank() == 0 {
			e.Put(vic.DMACached, 1, slot2, gc2, make([]uint64, words))
		}
		if e.Rank() == 1 {
			remedyWorks = e.WaitGC(gc2, sim.Forever)
		}
	})
	if stuck <= 0 {
		t.Errorf("racy remote-set did not exhibit the documented hazard (stuck=%d)", stuck)
	}
	if !dataIntact {
		t.Error("the transfer itself should still complete (paper: 'the transfer would complete')")
	}
	if !remedyWorks {
		t.Error("arm-then-barrier remedy failed")
	}
}
