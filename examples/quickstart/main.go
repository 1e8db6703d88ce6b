// Quickstart: the smallest complete Data Vortex program.
//
// Four simulated nodes pass tokens around a ring twice — once through DV
// Memory writes counted by group counters, once through the surprise FIFO —
// then compare the intrinsic barrier against MPI over InfiniBand on the
// same nodes. Run with:
//
//	go run ./examples/quickstart
package main

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/sim"
	"repro/internal/vic"
)

func main() {
	const nodes = 4
	rep := cluster.Run(cluster.DefaultConfig(nodes), func(n *cluster.Node) {
		e := n.DV
		right := (n.ID + 1) % nodes

		// --- 1. Counted one-sided write into the right neighbour.
		slot := e.Alloc(1)
		gc := e.AllocGC()
		e.ArmGC(gc, 1) // expect one word
		e.Barrier()    // everyone armed before anyone sends
		e.Put(vic.DMACached, right, slot, gc, []uint64{uint64(100 + n.ID)})
		e.WaitGC(gc, sim.Forever)
		got := e.Read(slot, 1)
		fmt.Printf("node %d: DV Memory token from left neighbour: %d\n", n.ID, got[0])

		// --- 2. Unscheduled message through the surprise FIFO.
		e.Barrier()
		e.FIFOPut(vic.PIOCached, right, []uint64{uint64(200 + n.ID)})
		word, _ := e.PopFIFO(sim.Forever)
		fmt.Printf("node %d: surprise packet: %d\n", n.ID, word)

		// --- 3. Barrier shoot-out on the same nodes.
		e.Barrier()
		t0 := n.P.Now()
		for i := 0; i < 10; i++ {
			e.Barrier()
		}
		dvTime := (n.P.Now() - t0) / 10
		n.MPI.Barrier()
		t0 = n.P.Now()
		for i := 0; i < 10; i++ {
			n.MPI.Barrier()
		}
		mpiTime := (n.P.Now() - t0) / 10
		if n.ID == 0 {
			fmt.Printf("barrier latency: Data Vortex %v vs MPI %v\n", dvTime, mpiTime)
		}
	})
	fmt.Printf("simulated run finished at t=%v (%d DV packets, %d MPI messages)\n",
		rep.Elapsed, rep.DVFabric.Delivered, rep.IBFabric.Messages)
}
