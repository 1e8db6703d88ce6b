package comm_test

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/cluster"
	"repro/internal/comm"
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

// raggedBlocks is round r's payload from rank to each of size peers: ragged
// lengths (0..22 bytes, most not word multiples), an empty block to the next
// rank, a non-empty block to itself, and bytes that differ between rounds, so
// a row read back stale from the previous round shows.
func raggedBlocks(rank, size, r int) [][]byte {
	blocks := make([][]byte, size)
	for d := range blocks {
		n := (rank*5 + d*3 + r*7) % 23
		switch d {
		case (rank + 1) % size:
			n = 0
		case rank:
			n = max(n, 9)
		}
		blocks[d] = make([]byte, n)
		for i := range blocks[d] {
			blocks[d][i] = byte(r*101 + rank*31 + d*17 + i)
		}
	}
	return blocks
}

// TestAlltoallCycleAccurateRagged is TestAlltoallBothBackends on the
// cycle-accurate Data Vortex switch, over two rounds of ragged blocks: the
// streamed scatter skips the self and empty blocks, and every source's
// block is read back through one reused row.
func TestAlltoallCycleAccurateRagged(t *testing.T) {
	const nodes = 5
	cfg := cluster.DefaultConfig(nodes)
	cfg.Stacks = comm.DV.Stacks()
	cfg.CycleAccurate = true
	bad := 0
	cluster.Run(cfg, func(n *cluster.Node) {
		be := comm.New(comm.DV, n)
		for r := 0; r < 2; r++ {
			got := be.Alltoall(raggedBlocks(be.Rank(), nodes, r))
			for src := range nodes {
				if want := raggedBlocks(src, nodes, r)[be.Rank()]; !bytes.Equal(got[src], want) || got[src] == nil {
					t.Errorf("round %d: rank %d got %v from %d, want %v", r, be.Rank(), got[src], src, want)
					bad++
				}
			}
		}
	})
	if bad != 0 {
		t.Fatalf("%d mismatched blocks", bad)
	}
}

// TestFabricEndpoints: each backend hands out its own fabric's programming
// model and nil for the other's, and ReliableBarrier works on both (on IB it
// degrades to the plain barrier).
func TestFabricEndpoints(t *testing.T) {
	for _, net := range comm.Nets() {
		cfg := cluster.DefaultConfig(2)
		cfg.Stacks = net.Stacks()
		cluster.Run(cfg, func(n *cluster.Node) {
			be := comm.New(net, n)
			if be.Net() != net || (be.Endpoint() != nil) != (net == comm.DV) || (be.MPI() != nil) != (net == comm.IB) {
				t.Errorf("%v: Net %v, Endpoint %v, MPI %v", net, be.Net(), be.Endpoint(), be.MPI())
			}
			if err := be.ReliableBarrier(); err != nil {
				t.Errorf("%v ReliableBarrier: %v", net, err)
			}
		})
	}
}
