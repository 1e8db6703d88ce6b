package cluster_test

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/shmem"
	"repro/internal/sim"
	"repro/internal/vic"
)

// A complete Data Vortex program: counted one-sided writes around a ring.
func ExampleRun() {
	rep := cluster.Run(cluster.DefaultConfig(4), func(n *cluster.Node) {
		e := n.DV
		slot := e.Alloc(1)
		gc := e.AllocGC()
		e.ArmGC(gc, 1)
		e.Barrier() // everyone armed before anyone sends
		peer := (n.ID + 1) % 4
		e.Put(vic.DMACached, peer, slot, gc, []uint64{uint64(n.ID * 11)})
		e.WaitGC(gc, sim.Forever)
		if n.ID == 0 {
			fmt.Println("node 0 received", e.Read(slot, 1)[0])
		}
	})
	fmt.Println("packets delivered:", rep.DVFabric.Delivered > 0)
	// Output:
	// node 0 received 33
	// packets delivered: true
}

// The PGAS layer: symmetric allocation, one-sided puts, a fence, and a
// collective reduction.
func ExampleRun_shmem() {
	cluster.Run(cluster.DefaultConfig(4), func(n *cluster.Node) {
		c := shmem.New(n.DV)
		s := c.Malloc(4)
		// Everyone deposits its rank into its slot on node 0.
		c.Put(0, s, c.Rank(), []uint64{uint64(c.Rank() + 1)})
		c.Fence()
		total := c.SumU64(uint64(c.Rank() + 1))
		if n.ID == 0 {
			vals := c.Local(s)
			fmt.Println("slots on node 0:", vals)
			fmt.Println("global sum:", total)
		}
	})
	// Output:
	// slots on node 0: [1 2 3 4]
	// global sum: 10
}
