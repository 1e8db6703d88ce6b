package dvswitch

import (
	"fmt"
	"testing"

	"repro/internal/faultplan"
	"repro/internal/sim"
)

// upFront is the test-only oracle for the delivery trains: the same model
// (FastModel.admit, the same batch merge, the same accounting), but every
// batch is queued in the kernel at injection, under the sequence number the
// train would reserve there — the scheduling the fast model used before it
// had trains. A train run must deliver exactly what this delivers, when it
// does.
type upFront struct {
	m    *FastModel
	last *upFrontEvent
}

type upFrontEvent struct {
	o    *upFront
	done sim.Time
	recs []deliveryRec
}

func (o *upFront) Inject(pkt Packet) {
	m := o.m
	now := m.k.Now()
	done, ok := m.admit(&pkt, now)
	if !ok {
		return
	}
	d := m.record(&pkt, done-now)
	if le := o.last; le != nil && le.done == done {
		le.recs = append(le.recs, d)
		return
	}
	ev := &upFrontEvent{o: o, done: done, recs: []deliveryRec{d}}
	o.last = ev
	m.k.AtArgSeq(done, m.k.ReserveSeq(), fireUpFront, ev)
}

func fireUpFront(a any) {
	ev := a.(*upFrontEvent)
	if ev.o.last == ev {
		ev.o.last = nil
	}
	for i := range ev.recs {
		ev.o.m.deliver(&ev.recs[i])
	}
}

// checkTrains asserts what the fast model keeps on its trains: every run
// starts on its first packet's port, and nothing behind the head's run is
// overdue (sim.Train itself refuses a key below its tail's). It returns the
// number of deliveries waiting.
func checkTrains(t *testing.T, m *FastModel) int {
	t.Helper()
	n := 0
	for port := range m.trains {
		tr := &m.trains[port]
		var headSeq, prevSeq uint64
		for i := 0; i < tr.Len(); i++ {
			at, seq, d := tr.At(i)
			if i == 0 {
				headSeq = seq
			}
			n++
			if seq != prevSeq && int(d.dst) != port {
				t.Fatalf("port %d: the run under seq %d belongs to port %d", port, seq, d.dst)
			}
			if at <= m.k.Now() && seq != headSeq {
				t.Fatalf("port %d: delivery seq %d due at %v is still waiting at %v", port, seq, at, m.k.Now())
			}
			prevSeq = seq
		}
	}
	return n
}

// trainMixRun drives one fast model with a hotspot + uniform + all-to-all mix
// whose deliveries re-inject, through the trains or through the up-front
// oracle, and returns the delivery log, the model's final statistics, the
// kernel's counts and its peak queue depth.
func trainMixRun(t *testing.T, geom Params, faults bool, oracle bool) (log []string, st Stats, events uint64, peak, peakWaiting int) {
	k := sim.NewKernel()
	m := NewFastModel(k, geom, DefaultCycleTime, sim.NewRNG(11))
	if faults {
		m.ApplyPlan(&faultplan.Plan{Seed: 5, DropProb: 0.02, CorruptProb: 0.01,
			Window: faultplan.Window{Start: 2 * sim.Microsecond, End: 40 * sim.Microsecond}})
	}
	inject := m.Inject
	if oracle {
		inject = (&upFront{m: m}).Inject
	}
	ports := geom.Ports()
	rng := sim.NewRNG(23)
	budget := 6 * ports // re-injections
	delivered := 0
	m.OnDeliver(func(pkt Packet) {
		log = append(log, fmt.Sprintf("%d %d>%d h%x p%x hops%d defl%d c%t",
			k.Now(), pkt.Src, pkt.Dst, pkt.Header, pkt.Payload, pkt.Hops, pkt.Deflections, pkt.Corrupt))
		delivered++
		if !oracle && delivered%97 == 0 {
			if w := checkTrains(t, m); w > peakWaiting {
				peakWaiting = w
			}
		}
		if budget > 0 {
			budget--
			// Every third reply goes back to the hotspot.
			dst := rng.Intn(ports)
			if budget%3 == 0 {
				dst = 1
			}
			inject(Packet{Src: pkt.Dst, Dst: dst, Header: pkt.Header + 1, Payload: uint64(budget)})
		}
	})
	// Three bursts, each one kernel event, as a DMA chunk is: everyone to one
	// port; a uniform spray; a full all-to-all, 4 words per pair.
	k.At(0, func() {
		for src := 0; src < ports; src++ {
			for w := 0; w < 8; w++ {
				inject(Packet{Src: src, Dst: 1, Header: 0x1000, Payload: uint64(src<<8 | w)})
			}
		}
	})
	k.At(3*sim.Microsecond, func() {
		for i := 0; i < 16*ports; i++ {
			inject(Packet{Src: rng.Intn(ports), Dst: rng.Intn(ports), Header: 0x2000, Payload: uint64(i)})
		}
	})
	k.At(5*sim.Microsecond, func() {
		a2a := ports
		if a2a > 64 {
			a2a = 64 // 64 x 64 x 4 is load enough at 256 ports
		}
		for w := 0; w < 4; w++ {
			for src := 0; src < a2a; src++ {
				for dst := 0; dst < a2a; dst++ {
					inject(Packet{Src: src, Dst: dst, Header: 0x3000, Payload: uint64(src<<16 | dst<<4 | w)})
				}
			}
		}
	})
	k.Run()
	if !oracle {
		if w := checkTrains(t, m); w != 0 {
			t.Errorf("%d entries still waiting after the run", w)
		}
	}
	events, _ = k.Counts()
	return log, m.FabricStats(), events, k.PeakPending(), peakWaiting
}

// TestFastModelTrainOrder: on 8x4 and on the 256-port geometry, clean and with
// a fault plan dropping and corrupting packets in mid-train, the trains
// deliver the same packets at the same instants in the same order as the
// oracle that queues every delivery in the kernel at injection, fire the same
// number of kernel events, and never hold more than one kernel event per
// port (plus the three burst events) while thousands of deliveries wait.
func TestFastModelTrainOrder(t *testing.T) {
	for _, tc := range []struct {
		name string
		geom Params
	}{
		{"8x4", Params{Heights: 8, Angles: 4}},
		{"256 ports", ForPorts(256)},
	} {
		for _, faults := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/faults=%t", tc.name, faults), func(t *testing.T) {
				want, wantSt, wantEv, oraclePeak, _ := trainMixRun(t, tc.geom, faults, true)
				got, gotSt, gotEv, peak, waiting := trainMixRun(t, tc.geom, faults, false)
				if len(got) != len(want) {
					t.Fatalf("%d deliveries, oracle made %d", len(got), len(want))
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("delivery %d is %q, oracle has %q", i, got[i], want[i])
					}
				}
				if gotSt != wantSt {
					t.Errorf("statistics differ:\n got %+v\nwant %+v", gotSt, wantSt)
				}
				if gotEv != wantEv {
					t.Errorf("fired %d kernel events, oracle fired %d", gotEv, wantEv)
				}
				if faults && (gotSt.Dropped == 0 || gotSt.Corrupted == 0) {
					t.Errorf("the fault plan dropped %d and corrupted %d packets; the case needs both", gotSt.Dropped, gotSt.Corrupted)
				}
				ports := tc.geom.Ports()
				if limit := ports + 3; peak > limit {
					t.Errorf("%d kernel events pending at once, want at most %d (one per port + the bursts)", peak, limit)
				}
				if waiting < 4*ports || oraclePeak < 4*ports {
					t.Errorf("only %d entries waited (oracle queue peaked at %d); the mix should stack several per port", waiting, oraclePeak)
				}
				t.Logf("%d deliveries; peak kernel depth %d with trains, %d armed up front; %d entries waiting at once",
					len(got), peak, oraclePeak, waiting)
			})
		}
	}
}

// TestFastModelMergeAcrossPorts: two packets for different ports that eject
// at the same instant merge into one run on the first packet's train; the
// second port's train stays empty, and both are delivered together in
// injection order.
func TestFastModelMergeAcrossPorts(t *testing.T) {
	k := sim.NewKernel()
	geom := Params{Heights: 8, Angles: 4}
	m := NewFastModel(k, geom, DefaultCycleTime, sim.NewRNG(1))
	var got []Packet
	var at []sim.Time
	m.OnDeliver(func(pkt Packet) { got = append(got, pkt); at = append(at, k.Now()) })
	// Find two (src, dst) pairs with equal flight time to different ports;
	// injected at the same instant from idle ports they eject together
	// unless the contention draw deflects one, so try seeds until they do.
	merged := false
	for seed := uint64(1); seed < 64 && !merged; seed++ {
		m.rng = sim.NewRNG(seed)
		base := len(got)
		k.At(k.Now()+sim.Microsecond, func() {
			m.Inject(Packet{Src: 2, Dst: 9, Payload: 1})
			m.Inject(Packet{Src: 3, Dst: 10, Payload: 2})
			if m.trains[9].Len() == 2 {
				merged = true
				if m.trains[10].Len() != 0 {
					t.Errorf("the merged member also started a train on its own port")
				}
			}
			checkTrains(t, m)
		})
		k.Run()
		if merged {
			if len(got) != base+2 || got[base].Payload != 1 || got[base+1].Payload != 2 || at[base] != at[base+1] {
				t.Fatalf("merged batch delivered %v at %v", got[base:], at[base:])
			}
		}
	}
	if !merged {
		t.Skip("no seed produced a same-instant ejection at two ports")
	}
}

// TestFastModelInjectAllocs: with the yard's free pages warm, injecting into
// long trains and draining them allocates nothing.
func TestFastModelInjectAllocs(t *testing.T) {
	k := sim.NewKernel()
	m := NewFastModel(k, Params{Heights: 8, Angles: 4}, DefaultCycleTime, sim.NewRNG(3))
	m.OnDeliver(func(Packet) {})
	rng := sim.NewRNG(5)
	ports := m.Ports()
	burst := func() {
		for i := 0; i < 512; i++ {
			m.Inject(Packet{Src: rng.Intn(ports), Dst: rng.Intn(4)}) // 128 deep per port
		}
		k.RunUntil(sim.Forever)
	}
	// Warm the yard's free pages and the kernel's event heap to their
	// high-water capacity.
	for i := 0; i < 64; i++ {
		burst()
	}
	if a := testing.AllocsPerRun(20, burst); a != 0 {
		t.Errorf("Inject + delivery allocate %.1f times per 512-packet burst, want 0", a)
	}
}
