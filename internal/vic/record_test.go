package vic

// An inject batch holds 24-byte records, expanded into Packets only for the
// fabric call. Through a real fabric the expansion must be invisible: a
// batch of records fired by fireInjectBatch delivers exactly what one
// InjectBatch of the Packets the scalar boundary builds (VIC.packet)
// delivers, packet for packet and instant for instant, with equal Stats.
//
// The expansion hands the fabric the whole batch in one call. Cutting it
// into sub-batches would be invisible to the engine and to the fast model,
// but not to a MultiPlane: it partitions each call by plane, so smaller calls
// change the order in which its planes draw kernel sequence numbers, and so
// the order of same-instant deliveries from different planes. The test
// holds both facts.

import (
	"fmt"
	"testing"

	"repro/internal/dvswitch"
	"repro/internal/sim"
)

// recordFabrics builds each fabric a cluster wires VICs to, on k: the
// cycle-accurate engine, the fast model, and two fast-model planes.
var recordFabrics = []struct {
	name string
	make func(k *sim.Kernel, geom dvswitch.Params) dvswitch.Fabric
}{
	{"engine", func(k *sim.Kernel, geom dvswitch.Params) dvswitch.Fabric {
		return dvswitch.NewEngine(k, geom, dvswitch.DefaultCycleTime)
	}},
	{"fast", func(k *sim.Kernel, geom dvswitch.Params) dvswitch.Fabric {
		return dvswitch.NewFastModel(k, geom, dvswitch.DefaultCycleTime, sim.NewRNG(5))
	}},
	{"2-plane", func(k *sim.Kernel, geom dvswitch.Params) dvswitch.Fabric {
		rng := sim.NewRNG(5)
		return dvswitch.NewMultiPlane([]dvswitch.Fabric{
			dvswitch.NewFastModel(k, geom, dvswitch.DefaultCycleTime, rng.Split()),
			dvswitch.NewFastModel(k, geom, dvswitch.DefaultCycleTime, rng.Split()),
		})
	}},
}

// delivery is one packet leaving the fabric and the instant it left.
type delivery struct {
	pkt dvswitch.Packet
	at  sim.Time
}

// recordRun has four VICs (ids 0-3 of a rail at ports 8-15 of a 16-port
// switch, sharing one expansion scratch) each inject a 300-word batch at each
// of two instants, and returns the fabric's deliveries in order and its Stats. With
// records set the batches are records fired by fireInjectBatch; otherwise
// InjectBatch calls of VIC.packet's Packets at the same instant, split
// words each (all of them when split is 0).
func recordRun(t *testing.T, fab int, records bool, split int) ([]delivery, dvswitch.Stats) {
	t.Helper()
	geom := dvswitch.ForPorts(16)
	k := sim.NewKernel()
	f := recordFabrics[fab].make(k, geom)
	var got []delivery
	f.OnDeliver(func(pkt dvswitch.Packet) {
		if dst, _, _, _ := DecodeHeader(pkt.Header); pkt.Dst != 8+dst {
			t.Errorf("VIC id %d went to port %d, not the rail's port %d", dst, pkt.Dst, 8+dst)
		}
		got = append(got, delivery{pkt, k.Now()})
	})
	vics := make([]*VIC, 4)
	for i := range vics {
		vics[i] = New(k, i, 8+i, DefaultParams(), f.Inject)
		vics[i].SetBatchInject(f.InjectBatch)
		vics[i].ShareScratch(vics[0])
	}
	for _, at := range []sim.Time{0, 3 * sim.Microsecond} {
		for i, v := range vics {
			words := make([]Word, 300)
			for j := range words {
				words[j] = sendWord(i*1000 + j + int(at))
				words[j].Dst = (j*7 + i) % 8
			}
			if records {
				b := v.newBatch()
				for j := range words {
					b.recs = append(b.recs, chunkRec{header: words[j].header(), payload: words[j].Val,
						dst: int32(v.portFor(words[j].Dst)), flow: uint32(j + 1)})
				}
				k.AtArg(at, fireInjectBatch, b)
				continue
			}
			pkts := make([]dvswitch.Packet, len(words))
			for j := range words {
				pkts[j] = v.packet(words[j], uint32(j+1))
			}
			step := split
			if step == 0 {
				step = len(pkts)
			}
			k.At(at, func() {
				for b := 0; b < len(pkts); b += step {
					f.InjectBatch(pkts[b:min(b+step, len(pkts))])
				}
			})
		}
	}
	k.Run()
	return got, f.FabricStats()
}

func TestRecordBatchMatchesPacketBatch(t *testing.T) {
	for fab := range recordFabrics {
		t.Run(recordFabrics[fab].name, func(t *testing.T) {
			want, wantSt := recordRun(t, fab, false, 0)
			if len(want) != 2400 {
				t.Fatalf("the reference delivered %d packets, want 2400", len(want))
			}
			got, gotSt := recordRun(t, fab, true, 0)
			if err := sameDeliveries(want, got, wantSt, gotSt); err != nil {
				t.Fatalf("records against one packet batch: %v", err)
			}
			split, splitSt := recordRun(t, fab, false, 32)
			err := sameDeliveries(want, split, wantSt, splitSt)
			if multi := recordFabrics[fab].name == "2-plane"; multi && err == nil {
				t.Fatal("32-word sub-batches deliver as one batch does on two planes, though they change the order the planes draw sequence numbers in")
			} else if !multi && err != nil {
				t.Fatalf("32-word sub-batches against one batch: %v", err)
			}
		})
	}
}

// sameDeliveries reports the first difference between two runs' deliveries
// and Stats, nil when there is none.
func sameDeliveries(want, got []delivery, wantSt, gotSt dvswitch.Stats) error {
	for i := range min(len(got), len(want)) {
		if got[i] != want[i] {
			return fmt.Errorf("delivery %d differs:\nwant %+v\ngot  %+v", i, want[i], got[i])
		}
	}
	if len(got) != len(want) {
		return fmt.Errorf("%d deliveries, want %d", len(got), len(want))
	}
	if gotSt != wantSt {
		return fmt.Errorf("stats differ:\nwant %+v\ngot  %+v", wantSt, gotSt)
	}
	return nil
}
