package dvswitch

// Snapshot guarantee for the delivery trains: a pending delivery behind its
// train's head is in no kernel queue, so the kernel section's fingerprint
// cannot vouch for it — the fast model's own image must. Two cross-checks pin
// that: (a) two identical runs cut at the same mid-transpose instants give
// byte-identical images, so neither pool order nor pointer values leak into
// one, and (b) changing anything about a waiting delivery — one payload bit,
// its injection time, its place in the order — changes the image, while the
// kernel's fingerprint does not notice.

import (
	"bytes"
	"testing"

	"repro/internal/sim"
	"repro/internal/snapshot"
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

func fastModelImage(m *FastModel) []byte {
	e := snapshot.NewEncoder()
	m.SnapshotTo(e)
	return e.Bytes()
}

// waiting returns the deliveries that are pending but not in the kernel.
func waiting(m *FastModel) (n int) {
	for i := range m.trains {
		if h := m.trains[i].head; h != nil {
			for ev := h.next; ev != nil; ev = ev.next {
				n++
			}
		}
	}
	return n
}

func TestTrainSnapshotReproducible(t *testing.T) {
	series := func() (imgs [][]byte, peakWaiting int) {
		k, m := transposeModel()
		for i := 1; i <= 30; i++ {
			k.RunUntil(sim.Time(i) * 100 * sim.Nanosecond)
			imgs = append(imgs, fastModelImage(m))
			if w := waiting(m); w > peakWaiting {
				peakWaiting = w
			}
		}
		k.Run()
		return append(imgs, fastModelImage(m)), peakWaiting
	}
	a, wa := series()
	b, _ := series()
	if wa < 1000 {
		t.Fatalf("at most %d deliveries waited behind a train head at a cut; the cuts are not mid-transpose", wa)
	}
	for i := range a {
		if !bytes.Equal(a[i], b[i]) {
			t.Fatalf("image %d differs between two identical runs (%d vs %d bytes)", i, len(a[i]), len(b[i]))
		}
	}
	if idle := len(a) - 1; len(a[idle]) >= len(a[2]) {
		t.Errorf("the quiescent image (%d bytes) is no smaller than a mid-transpose one (%d): the trains are not in it",
			len(a[idle]), len(a[2]))
	}
}

func TestTrainSnapshotCoversWaitingDeliveries(t *testing.T) {
	k, m := transposeModel()
	k.RunUntil(300 * sim.Nanosecond)
	if waiting(m) < 1000 {
		t.Fatalf("only %d deliveries wait behind a train head at the cut", waiting(m))
	}
	base := fastModelImage(m)
	nq, fp := k.QueueFingerprint()

	// A victim well inside a train, and a batch with a merged member.
	victim := m.trains[7].head.next.next
	var batch *deliveryEvent
	for i := range m.trains {
		for ev := m.trains[i].head; ev != nil && batch == nil; ev = ev.next {
			if ev.more != nil {
				batch = ev
			}
		}
	}
	if batch == nil {
		t.Fatal("no merged batch pending at the cut")
	}
	for _, tc := range []struct {
		name string
		mut  func() (undo func())
	}{
		{"one payload bit", func() func() {
			victim.pkt.Payload ^= 1 << 40
			return func() { victim.pkt.Payload ^= 1 << 40 }
		}},
		{"a merged member's payload bit", func() func() {
			batch.more.pkt.Payload ^= 1
			return func() { batch.more.pkt.Payload ^= 1 }
		}},
		{"the corrupt flag", func() func() {
			victim.pkt.Corrupt = true
			return func() { victim.pkt.Corrupt = false }
		}},
		{"the injection time", func() func() {
			victim.now++
			return func() { victim.now-- }
		}},
		{"the firing time", func() func() {
			victim.done++
			return func() { victim.done-- }
		}},
		{"the sequence number", func() func() {
			victim.seq++
			return func() { victim.seq-- }
		}},
		{"two entries swapped", func() func() {
			a, b := victim, victim.next
			a.pkt, b.pkt = b.pkt, a.pkt
			return func() { a.pkt, b.pkt = b.pkt, a.pkt }
		}},
		{"an entry dropped", func() func() {
			gone := victim.next
			victim.next = gone.next
			return func() { victim.next = gone }
		}},
	} {
		undo := tc.mut()
		if bytes.Equal(fastModelImage(m), base) {
			t.Errorf("%s: the image did not change", tc.name)
		}
		if n, f := k.QueueFingerprint(); n != nq || f != fp {
			t.Errorf("%s: the kernel fingerprint moved — the mutation was not confined to waiting deliveries", tc.name)
		}
		undo()
		if !bytes.Equal(fastModelImage(m), base) {
			t.Fatalf("%s: undo did not restore the image", tc.name)
		}
	}
}
