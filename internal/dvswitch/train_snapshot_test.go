package dvswitch

// A pending delivery behind its train's head is in no kernel queue; the run's
// determinism witness sees it when it fires, under the key reserved at
// injection. Two identical runs cut at the same mid-transpose instants must
// therefore have fired the same events, so neither pool order nor pointer
// values leak into the order the trains release their deliveries.

import (
	"testing"

	"repro/internal/sim"
)

// transposeModel starts an FFT-style transpose on a 32-port fast model: every
// port DMA-scatters a 16-word block to every other port, chunk by chunk.
func transposeModel() (*sim.Kernel, *FastModel) {
	k := sim.NewKernel()
	m := NewFastModel(k, Params{Heights: 8, Angles: 4}, DefaultCycleTime, sim.NewRNG(17))
	m.OnDeliver(func(Packet) {})
	ports := m.Ports()
	for chunk := 0; chunk < 4; chunk++ {
		k.At(sim.Time(chunk)*200*sim.Nanosecond, func() {
			for src := 0; src < ports; src++ {
				for dst := 0; dst < ports; dst++ {
					for w := 0; w < 4; w++ {
						m.Inject(Packet{Src: src, Dst: dst, Header: uint64(chunk), Payload: uint64(src<<20 | dst<<8 | chunk<<4 | w)})
					}
				}
			}
		})
	}
	return k, m
}

// waiting returns the deliveries that are pending but not in the kernel:
// every record behind a train's first.
func waiting(m *FastModel) (n int) {
	for i := range m.trains {
		n += max(m.trains[i].Len()-1, 0)
	}
	return n
}

func TestTrainSnapshotReproducible(t *testing.T) {
	type cut struct {
		digest    uint64
		queued    int
		queue     uint64
		delivered int64
	}
	series := func() (cuts []cut, peakWaiting int) {
		k, m := transposeModel()
		for i := 1; i <= 31; i++ {
			limit := sim.Time(i) * 100 * sim.Nanosecond
			if i == 31 {
				limit = sim.Forever
			}
			for k.RunUntilN(limit, 1<<20) > 0 {
			}
			c := cut{delivered: m.FabricStats().Delivered}
			c.digest, _ = k.Witness()
			c.queued, c.queue = k.QueueFingerprint()
			cuts = append(cuts, c)
			peakWaiting = max(peakWaiting, waiting(m))
		}
		return cuts, peakWaiting
	}
	a, wa := series()
	b, _ := series()
	if wa < 1000 {
		t.Fatalf("at most %d deliveries waited behind a train head at a cut; the cuts are not mid-transpose", wa)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("cut %d differs between two identical runs: %+v, then %+v", i, a[i], b[i])
		}
	}
	if last := a[len(a)-1]; last.queued != 0 || last.delivered != 4*32*32*4 {
		t.Errorf("the run ended with %d events queued and %d deliveries, want 0 and %d", last.queued, last.delivered, 4*32*32*4)
	}
}
