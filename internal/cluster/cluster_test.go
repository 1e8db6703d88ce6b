package cluster

import (
	"testing"

	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/vic"
)

func TestRunBothStacks(t *testing.T) {
	cfg := DefaultConfig(4)
	visited := make([]bool, 4)
	rep := Run(cfg, func(n *Node) {
		visited[n.ID] = true
		if n.DV == nil || n.MPI == nil {
			t.Errorf("node %d missing a stack", n.ID)
			return
		}
		// Exercise both fabrics.
		n.MPI.Barrier()
		n.DV.Barrier()
		if n.ID == 0 {
			n.DV.Put(vic.DMACached, 1, 10, vic.NoGC, []uint64{42})
			n.MPI.Send(1, 1, []byte{9})
		}
		if n.ID == 1 {
			d, _ := n.MPI.Recv(0, 1)
			if d[0] != 9 {
				t.Error("MPI payload wrong")
			}
		}
		n.MPI.Barrier()
		n.DV.Barrier()
		if n.ID == 1 {
			if got := n.DV.Read(10, 1); got[0] != 42 {
				t.Errorf("DV payload = %d", got[0])
			}
		}
	})
	for i, v := range visited {
		if !v {
			t.Fatalf("node %d never ran", i)
		}
	}
	if rep.Elapsed <= 0 {
		t.Fatal("no elapsed time")
	}
	if rep.DVFabric.Delivered == 0 {
		t.Fatal("no DV packets counted")
	}
	if rep.IBFabric.Messages == 0 {
		t.Fatal("no IB messages counted")
	}
}

func TestSingleStackConfigs(t *testing.T) {
	cfg := DefaultConfig(2)
	cfg.Stacks = StackDV
	Run(cfg, func(n *Node) {
		if n.MPI != nil {
			t.Error("MPI should be nil for StackDV")
		}
		n.DV.Barrier()
	})
	cfg.Stacks = StackIB
	Run(cfg, func(n *Node) {
		if n.DV != nil {
			t.Error("DV should be nil for StackIB")
		}
		n.MPI.Barrier()
	})
}

func TestComputeModel(t *testing.T) {
	cfg := DefaultConfig(1)
	cfg.Stacks = StackIB
	rep := Run(cfg, func(n *Node) {
		n.Flops(8e9) // exactly one second at 8 GFLOPS
	})
	if rep.Elapsed != sim.Second {
		t.Fatalf("8 GFLOP at 8 GFLOPS = %v, want 1s", rep.Elapsed)
	}
	rep = Run(cfg, func(n *Node) {
		n.MemOps(1000)
		n.Ops(1000)
	})
	want := 1000*DefaultCPU().RandomAccess + 1000*DefaultCPU().SmallOp
	if rep.Elapsed != want {
		t.Fatalf("op costs = %v, want %v", rep.Elapsed, want)
	}
}

func TestCycleAccurateStack(t *testing.T) {
	cfg := DefaultConfig(4)
	cfg.Stacks = StackDV
	cfg.CycleAccurate = true
	rep := Run(cfg, func(n *Node) {
		n.DV.Barrier()
		if n.ID == 2 {
			n.DV.Put(vic.PIO, 3, 0, vic.NoGC, []uint64{7})
		}
		n.DV.Barrier()
		n.DV.Barrier() // packets surely delivered by now
		if n.ID == 3 {
			if got := n.DV.Read(0, 1); got[0] != 7 {
				t.Errorf("cycle-accurate delivery failed: %d", got[0])
			}
		}
	})
	if rep.DVFabric.Delivered == 0 {
		t.Fatal("no packets through cycle-accurate switch")
	}
}

func TestOverProvisionedSwitchMapping(t *testing.T) {
	cfg := DefaultConfig(4)
	cfg.Stacks = StackDV
	cfg.SwitchGeom.Heights = 8
	cfg.SwitchGeom.Angles = 4 // 32 ports for 4 nodes
	Run(cfg, func(n *Node) {
		dst := (n.ID + 1) % 4
		n.DV.Put(vic.DMACached, dst, uint32(n.ID), vic.NoGC, []uint64{uint64(n.ID + 100)})
		n.DV.Barrier()
		n.DV.Barrier()
		src := (n.ID + 3) % 4
		if got := n.DV.Read(uint32(src), 1); got[0] != uint64(src+100) {
			t.Errorf("node %d: got %d from %d", n.ID, got[0], src)
		}
	})
}

func TestDeterministicRuns(t *testing.T) {
	run := func() sim.Time {
		cfg := DefaultConfig(8)
		return Run(cfg, func(n *Node) {
			for i := 0; i < 5; i++ {
				n.Compute(sim.Time(n.RNG.Intn(1000)) * sim.Nanosecond)
				n.MPI.Barrier()
				n.DV.Barrier()
			}
		}).Elapsed
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("non-deterministic: %v vs %v", a, b)
	}
}

func TestTraceRecordsStatesAndMessages(t *testing.T) {
	cfg := DefaultConfig(2)
	cfg.Trace = trace.New()
	Run(cfg, func(n *Node) {
		n.Compute(sim.Microsecond)
		if n.ID == 0 {
			n.MPI.Send(1, 1, make([]byte, 64))
		} else {
			n.MPI.Recv(0, 1)
		}
		n.Compute(sim.Microsecond)
	})
	states, msgs, span := cfg.Trace.Summary()
	if states < 4 {
		t.Fatalf("states = %d", states)
	}
	if msgs != 1 {
		t.Fatalf("messages = %d", msgs)
	}
	if span <= 0 {
		t.Fatal("empty trace span")
	}
}

func TestReportNodeTimes(t *testing.T) {
	cfg := DefaultConfig(3)
	cfg.Stacks = StackIB
	rep := Run(cfg, func(n *Node) {
		n.Compute(sim.Time(n.ID+1) * sim.Microsecond)
	})
	if rep.Elapsed != 3*sim.Microsecond {
		t.Fatalf("Elapsed = %v", rep.Elapsed)
	}
	for i, tt := range rep.NodeTimes {
		if tt != sim.Time(i+1)*sim.Microsecond {
			t.Fatalf("NodeTimes = %v", rep.NodeTimes)
		}
	}
}

func TestMultiRailIndependentPlanes(t *testing.T) {
	cfg := DefaultConfig(4)
	cfg.Stacks = StackDV
	cfg.VICsPerNode = 2
	Run(cfg, func(n *Node) {
		if len(n.Rails) != 2 || n.DV != n.Rails[0] {
			t.Error("rails not wired")
			return
		}
		// Each rail delivers to the matching rail of the destination node.
		for r, e := range n.Rails {
			slot := e.Alloc(1)
			gc := e.AllocGC()
			e.ArmGC(gc, 1)
			e.Barrier()
			peer := (n.ID + 1) % 4
			e.Put(vic.DMACached, peer, slot, gc, []uint64{uint64(100*r + n.ID)})
			e.WaitGC(gc, sim.Forever)
			got := e.Read(slot, 1)
			want := uint64(100*r + (n.ID+3)%4)
			if got[0] != want {
				t.Errorf("node %d rail %d: got %d, want %d", n.ID, r, got[0], want)
			}
		}
	})
}
