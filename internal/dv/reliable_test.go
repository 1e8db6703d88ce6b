package dv

import (
	"errors"
	"testing"

	"repro/internal/dvswitch"
	"repro/internal/faultplan"
	"repro/internal/sim"
	"repro/internal/vic"
)

// newFaultyTestbed is newTestbed with a fault plan applied to the
// cycle-accurate engine.
func newFaultyTestbed(n int, plan *faultplan.Plan) *testbed {
	k := sim.NewKernel()
	eng := dvswitch.NewEngine(k, dvswitch.ForPorts(n), dvswitch.DefaultCycleTime)
	eng.ApplyPlan(plan)
	tb := &testbed{k: k, eps: make([]*Endpoint, n)}
	vics := make([]*vic.VIC, n)
	for i := 0; i < n; i++ {
		vics[i] = vic.New(k, i, i, vic.DefaultParams(), eng.Inject)
		vics[i].BarrierInit(n)
		tb.eps[i] = NewEndpoint(vics[i], i, n)
	}
	eng.OnDeliver(func(pkt dvswitch.Packet) { vics[pkt.Dst].Receive(pkt) })
	return tb
}

func TestReliableWriteNoFaults(t *testing.T) {
	tb := newTestbed(2)
	vals := []uint64{10, 20, 30, 40}
	addr := tb.eps[0].Alloc(len(vals))
	tb.eps[1].Alloc(len(vals))
	var got []uint64
	tb.spmd(func(e *Endpoint) {
		if e.Rank() == 0 {
			if err := e.ReliableWrite(1, addr, vals); err != nil {
				t.Errorf("ReliableWrite: %v", err)
			}
			if err := e.ReliableBarrier(); err != nil {
				t.Errorf("barrier: %v", err)
			}
		} else {
			if err := e.ReliableBarrier(); err != nil {
				t.Errorf("barrier: %v", err)
			}
			got = e.Read(addr, len(vals))
		}
	})
	for i, v := range vals {
		if got[i] != v {
			t.Fatalf("word %d: got %d want %d", i, got[i], v)
		}
	}
	st := tb.eps[0].ReliableTelemetry()
	if st.Retransmits != 0 || st.Failures != 0 {
		t.Fatalf("clean run should not retransmit: %+v", st)
	}
	if st.Writes == 0 {
		t.Fatal("no writes counted")
	}
}

func TestReliableWriteUnderDrops(t *testing.T) {
	// 2%/hop drops: with ~10 hops per packet roughly one in five packets
	// dies, so retransmission must engage — and must converge.
	plan := &faultplan.Plan{Seed: 5, DropProb: 0.02}
	tb := newFaultyTestbed(4, plan)
	const words = 64
	addr := tb.eps[0].Alloc(words * 4)
	for _, e := range tb.eps[1:] {
		e.Alloc(words * 4)
	}
	results := make([][]uint64, 4)
	tb.spmd(func(e *Endpoint) {
		dst := (e.Rank() + 1) % e.Size()
		vals := make([]uint64, words)
		for i := range vals {
			vals[i] = uint64(e.Rank()*1000 + i + 1)
		}
		if err := e.ReliableWrite(dst, addr+uint32(e.Rank())*words, vals); err != nil {
			t.Errorf("rank %d: %v", e.Rank(), err)
		}
		if err := e.ReliableBarrier(); err != nil {
			t.Errorf("rank %d barrier: %v", e.Rank(), err)
		}
		src := (e.Rank() + e.Size() - 1) % e.Size()
		results[e.Rank()] = e.Read(addr+uint32(src)*words, words)
	})
	var total ReliableStats
	for _, e := range tb.eps {
		total.Merge(e.ReliableTelemetry())
	}
	if total.Retransmits == 0 {
		t.Error("expected retransmits at 2%/hop drop rate")
	}
	if total.Failures != 0 {
		t.Errorf("unexpected failures: %+v", total)
	}
	for rank, got := range results {
		src := (rank + 3) % 4
		for i, v := range got {
			if want := uint64(src*1000 + i + 1); v != want {
				t.Fatalf("rank %d word %d: got %d want %d", rank, i, v, want)
			}
		}
	}
}

func TestReliableDeliveryError(t *testing.T) {
	// Total loss: every packet drops, so the retry budget must run out and
	// surface a typed error rather than hanging.
	plan := &faultplan.Plan{Seed: 1, DropProb: 1}
	tb := newFaultyTestbed(2, plan)
	addr := tb.eps[0].Alloc(1)
	tb.eps[1].Alloc(1)
	var err error
	tb.spmd(func(e *Endpoint) {
		o := &e.rstate().opts // every node carves its scratch; only timing changes
		o.Timeout, o.MaxAttempts = 2*sim.Microsecond, 3
		o.QueryDelay, o.PollInterval = sim.Microsecond, sim.Microsecond
		if e.Rank() == 0 {
			err = e.ReliableWrite(1, addr, []uint64{7})
		}
	})
	var de *DeliveryError
	if !errors.As(err, &de) {
		t.Fatalf("want *DeliveryError, got %v", err)
	}
	if de.Dst != 1 || de.Attempts != 3 || de.Missing == 0 {
		t.Fatalf("unexpected error detail: %+v", de)
	}
	st := tb.eps[0].ReliableTelemetry()
	if st.Failures != 1 || st.RecoveryTime == 0 {
		t.Fatalf("failure accounting: %+v", st)
	}
}

func TestReliableScatterRejectsCountedWords(t *testing.T) {
	tb := newTestbed(2)
	addr := tb.eps[0].Alloc(1)
	tb.eps[1].Alloc(1)
	var err error
	tb.spmd(func(e *Endpoint) {
		if e.Rank() == 0 {
			err = e.ReliableScatter([]vic.Word{{Dst: 1, Op: vic.OpWrite, GC: 3, Addr: addr, Val: 1}})
		}
	})
	if err == nil {
		t.Fatal("GC-counted word must be rejected")
	}
}

func TestReliableScatterSplitsDuplicateAddr(t *testing.T) {
	// Two writes to the same (dst, addr): last-writer-wins means the second
	// must land after the first verifies, in a separate chunk.
	tb := newTestbed(2)
	addr := tb.eps[0].Alloc(1)
	tb.eps[1].Alloc(1)
	var got uint64
	tb.spmd(func(e *Endpoint) {
		if e.Rank() == 0 {
			err := e.ReliableScatter([]vic.Word{
				{Dst: 1, Op: vic.OpWrite, GC: vic.NoGC, Addr: addr, Val: 111},
				{Dst: 1, Op: vic.OpWrite, GC: vic.NoGC, Addr: addr, Val: 222},
			})
			if err != nil {
				t.Errorf("scatter: %v", err)
			}
			if err := e.ReliableBarrier(); err != nil {
				t.Errorf("barrier: %v", err)
			}
		} else {
			if err := e.ReliableBarrier(); err != nil {
				t.Errorf("barrier: %v", err)
			}
			got = e.Read(addr, 1)[0]
		}
	})
	if got != 222 {
		t.Fatalf("got %d want 222 (program order must win)", got)
	}
}

func TestReliableBarrierUnderDrops(t *testing.T) {
	plan := &faultplan.Plan{Seed: 9, DropProb: 0.03}
	tb := newFaultyTestbed(4, plan)
	arrived := make([]sim.Time, 4)
	tb.spmd(func(e *Endpoint) {
		e.Proc().Wait(sim.Time(e.Rank()) * sim.Microsecond) // skewed arrival
		for i := 0; i < 3; i++ {
			if err := e.ReliableBarrier(); err != nil {
				t.Errorf("rank %d: %v", e.Rank(), err)
			}
		}
		arrived[e.Rank()] = e.Proc().Now()
	})
	for r, at := range arrived {
		if at == 0 {
			t.Fatalf("rank %d never finished", r)
		}
	}
}

func TestReliableHeapGuard(t *testing.T) {
	tb := newTestbed(2)
	e := tb.eps[0]
	tb.spmd(func(ep *Endpoint) {
		if ep.Rank() == 0 {
			_ = ep.ReliableBarrier() // forces the scratch carve
		}
	})
	mem := e.V.Params().MemWords
	defer func() {
		if recover() == nil {
			t.Fatal("Alloc crossing the reliable scratch must panic")
		}
	}()
	e.Alloc(mem) // would overlap the carve
}
