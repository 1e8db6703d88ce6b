package dv

import (
	"testing"

	"repro/internal/dvswitch"
	"repro/internal/sim"
	"repro/internal/vic"
)

// testbed wires n endpoints over a cycle-accurate switch.
type testbed struct {
	k   *sim.Kernel
	eng *dvswitch.Engine
	eps []*Endpoint
}

func newTestbed(n int) *testbed {
	k := sim.NewKernel()
	eng := dvswitch.NewEngine(k, dvswitch.ForPorts(n), dvswitch.DefaultCycleTime)
	tb := &testbed{k: k, eng: eng, eps: make([]*Endpoint, n)}
	vics := make([]*vic.VIC, n)
	for i := 0; i < n; i++ {
		vics[i] = vic.New(k, i, i, vic.DefaultParams(), eng.Inject)
		vics[i].BarrierInit(n)
		tb.eps[i] = NewEndpoint(vics[i], i, n)
	}
	eng.OnDeliver(func(pkt dvswitch.Packet) { vics[pkt.Dst].Receive(pkt) })
	return tb
}

// spmd runs body once per endpoint.
func (tb *testbed) spmd(body func(e *Endpoint)) {
	for _, e := range tb.eps {
		e := e
		tb.k.Spawn("node", func(p *sim.Proc) {
			e.Bind(p)
			body(e)
		})
	}
	tb.k.Run()
}

func TestSymmetricAllocators(t *testing.T) {
	tb := newTestbed(2)
	a0 := tb.eps[0].Alloc(100)
	a1 := tb.eps[1].Alloc(100)
	if a0 != a1 {
		t.Fatalf("asymmetric heap: %d vs %d", a0, a1)
	}
	b0 := tb.eps[0].Alloc(50)
	if b0 != a0+100 {
		t.Fatalf("allocator not sequential: %d", b0)
	}
	g0, g1 := tb.eps[0].AllocGC(), tb.eps[1].AllocGC()
	if g0 != g1 || g0 == 0 {
		t.Fatalf("GC allocator: %d vs %d", g0, g1)
	}
}

func TestWriteLocalAndRead(t *testing.T) {
	tb := newTestbed(1)
	tb.spmd(func(e *Endpoint) {
		addr := e.Alloc(4)
		e.WriteLocal(addr, []uint64{9, 8, 7, 6})
		got := e.Read(addr, 4)
		if got[2] != 7 {
			t.Errorf("got %v", got)
		}
	})
}

func TestQueryViaEndpoint(t *testing.T) {
	tb := newTestbed(3)
	var got uint64
	tb.spmd(func(e *Endpoint) {
		src := e.Alloc(1)
		dst := e.Alloc(1)
		gc := e.AllocGC()
		if e.Rank() == 1 {
			e.WriteLocal(src, []uint64{4242})
		}
		e.Barrier()
		if e.Rank() == 0 {
			e.ArmGC(gc, 1)
			e.Scatter(vic.PIO, []vic.Word{{Dst: 1, Op: vic.OpQuery, GC: vic.NoGC, Addr: src,
				Val: vic.EncodeHeader(0, vic.OpWrite, gc, dst)}})
			e.WaitGC(gc, sim.Forever)
			got = e.Read(dst, 1)[0]
		}
	})
	if got != 4242 {
		t.Fatalf("query returned %d", got)
	}
}

func TestRemoteGCControl(t *testing.T) {
	tb := newTestbed(2)
	ok := false
	tb.spmd(func(e *Endpoint) {
		gc := e.AllocGC()
		if e.Rank() == 1 {
			e.ArmGC(gc, 5)
		}
		e.Barrier()
		if e.Rank() == 0 {
			e.Scatter(vic.PIO, []vic.Word{{Dst: 1, Op: vic.OpDecGC, GC: vic.NoGC, Addr: uint32(gc), Val: 5}})
		} else {
			ok = e.WaitGC(gc, sim.Forever)
		}
	})
	if !ok {
		t.Fatal("remote decrement never drained the counter")
	}
}

func TestCollectiveAllGather(t *testing.T) {
	for _, n := range []int{1, 2, 4, 7} {
		tb := newTestbed(n)
		results := make([][]uint64, n)
		tb.spmd(func(e *Endpoint) {
			c := NewCollective(e, 2)
			e.Barrier()
			for round := 0; round < 3; round++ {
				out := c.AllGather([]uint64{uint64(e.Rank()*10 + round), uint64(round)})
				results[e.Rank()] = out
			}
		})
		for r, out := range results {
			if len(out) != 2*n {
				t.Fatalf("n=%d rank=%d: %v", n, r, out)
			}
			for src := 0; src < n; src++ {
				if out[2*src] != uint64(src*10+2) || out[2*src+1] != 2 {
					t.Fatalf("n=%d rank=%d: %v", n, r, out)
				}
			}
		}
	}
}

func TestCollectiveReductions(t *testing.T) {
	tb := newTestbed(4)
	var sum uint64
	var max float64
	tb.spmd(func(e *Endpoint) {
		c := NewCollective(e, 1)
		e.Barrier()
		s := c.AllReduceSum(uint64(e.Rank() + 1))
		m := c.AllReduceMaxFloat(float64(e.Rank()) * 1.5)
		if e.Rank() == 2 {
			sum, max = s, m
		}
	})
	if sum != 10 {
		t.Fatalf("sum = %d", sum)
	}
	if max != 4.5 {
		t.Fatalf("max = %f", max)
	}
}

func TestDMAProgramReuse(t *testing.T) {
	tb := newTestbed(2)
	addr0 := tb.eps[0].Alloc(8)
	tb.eps[1].Alloc(8)
	var firstCost, secondCost sim.Time
	got := make([]uint64, 0)
	tb.spmd(func(e *Endpoint) {
		gc := e.AllocGC()
		e.ArmGC(gc, 16)
		e.Barrier()
		if e.Rank() == 0 {
			tmpl := make([]vic.Word, 8)
			for i := range tmpl {
				tmpl[i] = vic.Word{Dst: 1, Op: vic.OpWrite, GC: gc, Addr: addr0 + uint32(i)}
			}
			pr := e.NewProgram(tmpl)
			for i := 0; i < 8; i++ {
				pr.SetPayload(i, uint64(i))
			}
			t0 := e.Proc().Now()
			e.Trigger(pr)
			firstCost = e.Proc().Now() - t0
			for i := 0; i < 8; i++ {
				pr.SetPayload(i, uint64(100+i))
			}
			t0 = e.Proc().Now()
			e.Trigger(pr)
			secondCost = e.Proc().Now() - t0
		}
		if e.Rank() == 1 {
			e.WaitGC(gc, sim.Forever)
			got = e.Read(addr0, 8)
		}
	})
	if secondCost >= firstCost {
		t.Fatalf("persistent program not cheaper on reuse: %v then %v", firstCost, secondCost)
	}
	// The second trigger's payloads overwrite the first.
	if got[3] != 103 {
		t.Fatalf("got %v", got)
	}
}

func TestReadProgramReuse(t *testing.T) {
	tb := newTestbed(1)
	tb.spmd(func(e *Endpoint) {
		addr := e.Alloc(16)
		e.WriteLocal(addr, []uint64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16})
		rp := e.NewReadProgram(addr, 16)
		row := make([]uint64, 16) // one row for both pulls
		t0 := e.Proc().Now()
		e.Pull(rp, row)
		d1 := e.Proc().Now() - t0
		if row[15] != 16 {
			t.Errorf("first pull: %v", row)
		}
		e.WriteLocal(addr, []uint64{101})
		t0 = e.Proc().Now()
		e.Pull(rp, row)
		d2 := e.Proc().Now() - t0
		if row[0] != 101 || row[15] != 16 {
			t.Errorf("second pull into the same row: %v", row)
		}
		if d2 >= d1 {
			t.Errorf("read program not cheaper on reuse: %v then %v", d1, d2)
		}
		defer func() {
			if recover() == nil {
				t.Error("Pull into a row shorter than the program must panic")
			}
		}()
		e.Pull(rp, row[:15])
	})
}

func TestHeapExhaustionPanics(t *testing.T) {
	tb := newTestbed(1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	tb.eps[0].Alloc(vic.DefaultParams().MemWords + 1)
}

func TestGCExhaustionPanics(t *testing.T) {
	tb := newTestbed(1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	for i := 0; i < 100; i++ {
		tb.eps[0].AllocGC()
	}
}
