package vic

// State guarantees for the batched boundary: the double-buffered surprise
// FIFO and pooled inject batches must not show in what a VIC holds, and the
// receive train (which both boundaries share) must read the same under
// either. Two cross-checks pin that: (a) a batched testbed and a scalar
// testbed driven through the same workload hold the same VIC state at every
// sampled mid-drain instant, and (b) two identical batched runs do, instant
// for instant, so the pooled buffers never leak run-local state.

import (
	"bytes"
	"fmt"
	"sort"
	"testing"

	"repro/internal/dvswitch"
	"repro/internal/sim"
)

// state renders what the VICs hold that a boundary could change: DV Memory
// (every materialised page, ascending), the group counters, the receive
// train without its sequence numbers (the scalar injection reference draws
// more of them; the train's order stands in for them), the surprise FIFO and
// the host ring's depth, the PCIe and DMA lanes, and the telemetry.
func state(vics []*VIC) []byte {
	var b bytes.Buffer
	for _, v := range vics {
		ids := make([]uint32, 0, len(v.mem.pages))
		for id := range v.mem.pages {
			ids = append(ids, id)
		}
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
		fmt.Fprintln(&b, "vic", v.ID, "words", v.mem.words)
		for _, id := range ids {
			fmt.Fprintln(&b, "page", id, v.mem.pages[id])
		}
		fmt.Fprintln(&b, "gc", v.gc, v.gcZeroed)
		for i := 0; i < v.rx.Len(); i++ {
			at, _, r := v.rx.At(i)
			fmt.Fprintln(&b, "rx", at, r.src, r.header, r.payload, r.flow)
		}
		fmt.Fprintln(&b, "fifo", v.fifo, v.fifoFlows, v.hostRing.Len(), v.drainArmed)
		for _, p := range []*sim.Pipe{&v.pioWr, &v.pioRd, &v.dmaIn, &v.dmaOut} {
			fmt.Fprintln(&b, "pipe", p.BusyUntil(), p.Busy)
		}
		fmt.Fprintf(&b, "barriers %d %+v\n", v.barrierN, v.st)
	}
	return b.Bytes()
}

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

// stateSeries runs the workload on a fresh testbed and renders every VIC's
// state at a fixed grid of virtual instants.
func stateSeries(scalar bool) [][]byte {
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
	capture := func() { series = append(series, state(tb.vics)) }
	// Sample densely enough to land inside DMA chunks and FIFO drains.
	for i := 1; i <= 40; i++ {
		k.At(sim.Time(i)*500*sim.Nanosecond, capture)
	}
	k.Run()
	capture() // final quiescent state
	return series
}

func TestBoundarySnapshotScalarBatchedIdentical(t *testing.T) {
	batched := stateSeries(false)
	scalar := stateSeries(true)
	if len(batched) != len(scalar) {
		t.Fatalf("capture counts differ: batched %d, scalar %d", len(batched), len(scalar))
	}
	for i := range batched {
		if !bytes.Equal(batched[i], scalar[i]) {
			t.Fatalf("state %d differs between batched and scalar boundaries "+
				"(%d vs %d bytes)", i, len(batched[i]), len(scalar[i]))
		}
	}
}

func TestBoundarySnapshotRoundTrip(t *testing.T) {
	a := stateSeries(false)
	b := stateSeries(false)
	if len(a) != len(b) {
		t.Fatalf("capture counts differ across identical runs: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if !bytes.Equal(a[i], b[i]) {
			t.Fatalf("state %d not reproducible across identical batched runs", i)
		}
	}
}
