package vic

// Snapshot guarantees for the batched-boundary state: the double-buffered
// surprise FIFO and pooled inject batches must be invisible in state images,
// and the receive train (which both boundaries share) must read the same
// under either. Two cross-checks pin that: (a) a batched testbed and a
// scalar testbed driven through the same workload produce byte-identical VIC
// snapshots at every sampled mid-drain instant, and (b)
// snapshots of two identical batched runs match instant for instant, so the
// pooled buffers never leak run-local state into an image (what the
// determinism audit relies on).

import (
	"bytes"
	"testing"

	"repro/internal/dvswitch"
	"repro/internal/sim"
	"repro/internal/snapshot"
)

// boundaryWorkload drives FIFO-heavy traffic (surprise pushes force drain
// DMA activity, writes force receive executions) from two senders to one
// receiver that keeps the host ring hot.
func boundaryWorkload(tb *testbed) {
	tb.k.Spawn("recv", func(p *sim.Proc) {
		for i := 0; i < 48; i++ {
			if _, ok := tb.vics[2].PopSurprise(p, 200*sim.Microsecond); !ok {
				return
			}
		}
	})
	for s := 0; s < 2; s++ {
		s := s
		tb.k.Spawn("send", func(p *sim.Proc) {
			words := make([]Word, 24)
			for i := range words {
				words[i] = Word{Dst: 2, Op: OpFIFO, GC: NoGC, Val: uint64(s*1000 + i)}
			}
			tb.vics[s].HostSend(p, DMACached, words)
			for i := range words {
				words[i] = Word{Dst: 2, Op: OpWrite, GC: NoGC, Addr: uint32(i), Val: uint64(s*77 + i)}
			}
			tb.vics[s].HostSend(p, PIO, words[:4])
			tb.vics[s].HostSend(p, DMA, words[4:])
		})
	}
}

// snapshotSeries runs the workload on a fresh testbed and captures every
// VIC's snapshot at a fixed grid of virtual instants.
func snapshotSeries(scalar bool) [][]byte {
	k := sim.NewKernel()
	eng := dvswitch.NewEngine(k, dvswitch.ForPorts(4), dvswitch.DefaultCycleTime)
	tb := &testbed{k: k, vics: make([]*VIC, 4)}
	for i := 0; i < 4; i++ {
		tb.vics[i] = New(k, i, i, DefaultParams(), eng.Inject)
		tb.vics[i].SetScalarBoundary(scalar)
		if !scalar {
			tb.vics[i].SetBatchInject(eng.InjectBatch)
		}
	}
	eng.OnDeliver(func(pkt dvswitch.Packet) { tb.vics[pkt.Dst].Receive(pkt) })
	boundaryWorkload(tb)

	var series [][]byte
	capture := func() {
		e := snapshot.NewEncoder()
		for _, v := range tb.vics {
			v.SnapshotTo(e)
		}
		series = append(series, e.Bytes())
	}
	// Sample densely enough to land inside DMA chunks and FIFO drains.
	for i := 1; i <= 40; i++ {
		k.At(sim.Time(i)*500*sim.Nanosecond, capture)
	}
	k.Run()
	capture() // final quiescent state
	return series
}

func TestBoundarySnapshotScalarBatchedIdentical(t *testing.T) {
	batched := snapshotSeries(false)
	scalar := snapshotSeries(true)
	if len(batched) != len(scalar) {
		t.Fatalf("capture counts differ: batched %d, scalar %d", len(batched), len(scalar))
	}
	for i := range batched {
		if !bytes.Equal(batched[i], scalar[i]) {
			t.Fatalf("snapshot %d differs between batched and scalar boundaries "+
				"(%d vs %d bytes)", i, len(batched[i]), len(scalar[i]))
		}
	}
}

func TestBoundarySnapshotRoundTrip(t *testing.T) {
	a := snapshotSeries(false)
	b := snapshotSeries(false)
	if len(a) != len(b) {
		t.Fatalf("capture counts differ across identical runs: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if !bytes.Equal(a[i], b[i]) {
			t.Fatalf("snapshot %d not reproducible across identical batched runs", i)
		}
	}
}
