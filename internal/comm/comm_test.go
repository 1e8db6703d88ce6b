package comm_test

import (
	"fmt"
	"testing"

	"repro/internal/cluster"
	"repro/internal/comm"
	"repro/internal/sim"
)

func TestNetStrings(t *testing.T) {
	if comm.DV.String() != "Data Vortex" || comm.IB.String() != "Infiniband" {
		t.Fatalf("paper labels wrong: %q / %q", comm.DV, comm.IB)
	}
	for _, tc := range []struct {
		in   string
		want comm.Net
	}{{"dv", comm.DV}, {"Data Vortex", comm.DV}, {"ib", comm.IB}, {"mpi", comm.IB}} {
		got, err := comm.ParseNet(tc.in)
		if err != nil || got != tc.want {
			t.Errorf("ParseNet(%q) = %v, %v", tc.in, got, err)
		}
	}
	if _, err := comm.ParseNet("token-ring"); err == nil {
		t.Error("ParseNet accepted an unknown network")
	}
}

func TestNetStacks(t *testing.T) {
	if comm.DV.Stacks() != cluster.StackDV || comm.IB.Stacks() != cluster.StackIB {
		t.Fatal("Net→Stack mapping wrong")
	}
}

// blocksFrom builds a deterministic ragged all-to-all payload, including
// empty and non-word-aligned blocks.
func blocksFrom(rank, size int) [][]byte {
	blocks := make([][]byte, size)
	for d := range blocks {
		n := (rank*7 + d*3) % 21 // 0..20 bytes, hits 0 and non-multiples of 8
		b := make([]byte, n)
		for i := range b {
			b[i] = byte(rank*31 + d*17 + i)
		}
		blocks[d] = b
	}
	return blocks
}

// TestAlltoallBothBackends runs the same ragged exchange over both
// backends and checks each receives exactly what every peer addressed to
// it — the backend-neutral contract.
func TestAlltoallBothBackends(t *testing.T) {
	const nodes = 5
	for _, net := range comm.Nets() {
		net := net
		t.Run(net.String(), func(t *testing.T) {
			cfg := cluster.DefaultConfig(nodes)
			cfg.Stacks = net.Stacks()
			bad := 0
			cluster.Run(cfg, func(n *cluster.Node) {
				be := comm.New(net, n)
				// Two rounds: the second reuses (and on DV re-arms) the
				// exchange state.
				for round := 0; round < 2; round++ {
					got := be.Alltoall(blocksFrom(be.Rank(), be.Size()))
					for src := 0; src < be.Size(); src++ {
						want := blocksFrom(src, be.Size())[be.Rank()]
						if fmt.Sprint(got[src]) != fmt.Sprint(want) {
							bad++
						}
					}
				}
			})
			if bad != 0 {
				t.Fatalf("%d mismatched blocks", bad)
			}
		})
	}
}

// TestOneSidedOps exercises the Data Vortex one-sided path and the IB
// backend's unsupported reports.
func TestOneSidedOps(t *testing.T) {
	cfg := cluster.DefaultConfig(2)
	cfg.Stacks = cluster.StackDV
	var fifoGot uint64
	cluster.Run(cfg, func(n *cluster.Node) {
		be := comm.New(comm.DV, n)
		e := be.Endpoint()
		slot := e.Alloc(1)
		gc := e.AllocGC()
		e.ArmGC(gc, 1)
		be.Barrier()
		peer := 1 - be.Rank()
		if err := be.Put(comm.DMACached, peer, slot, gc, []uint64{uint64(10 + be.Rank())}); err != nil {
			t.Errorf("Put: %v", err)
		}
		e.WaitGC(gc, sim.Forever)
		if got := e.Read(slot, 1)[0]; got != uint64(10+peer) {
			t.Errorf("rank %d read %d", be.Rank(), got)
		}
		be.Barrier()
		if err := be.Scatter(comm.PIOCached, []comm.Word{
			{Dst: peer, Op: comm.OpFIFO, GC: comm.NoGC, Val: 77}}); err != nil {
			t.Errorf("Scatter: %v", err)
		}
		if w, ok := be.Drain(sim.Forever); ok && be.Rank() == 0 {
			fifoGot = w
		}
		be.Barrier()
	})
	if fifoGot != 77 {
		t.Fatalf("FIFO drain got %d", fifoGot)
	}

	cfg = cluster.DefaultConfig(2)
	cfg.Stacks = cluster.StackIB
	cluster.Run(cfg, func(n *cluster.Node) {
		be := comm.New(comm.IB, n)
		if err := be.Scatter(comm.DMACached, nil); err != comm.ErrUnsupported {
			t.Errorf("IB Scatter err = %v", err)
		}
		if err := be.Put(comm.DMACached, 0, 0, comm.NoGC, nil); err != comm.ErrUnsupported {
			t.Errorf("IB Put err = %v", err)
		}
		if _, ok := be.Drain(0); ok {
			t.Error("IB Drain reported a word")
		}
		if be.Endpoint() != nil || be.MPI() == nil {
			t.Error("IB capability accessors wrong")
		}
		if err := be.ReliableBarrier(); err != nil {
			t.Errorf("IB ReliableBarrier: %v", err)
		}
	})
}
