// PGAS demo: the shmem layer in action — symmetric allocation, one-sided
// puts, query-packet gets, the counting fence, and collectives — building a
// tiny distributed histogram (the classic PGAS exercise) on the Data Vortex
// primitives.
//
//	go run ./examples/pgas [-nodes 8] [-samples 4096]
package main

import (
	"flag"
	"fmt"

	"repro/internal/cluster"
	"repro/internal/shmem"
)

func main() {
	nodes := flag.Int("nodes", 8, "cluster nodes")
	samples := flag.Int("samples", 4096, "samples per node")
	flag.Parse()

	const bins = 16
	rep := cluster.Run(cluster.DefaultConfig(*nodes), func(n *cluster.Node) {
		c := shmem.New(n.DV)
		// Each node owns bins/P of the histogram... with 16 bins over P
		// nodes, bin b lives on node b % P at slot b / P.
		slots := (bins + c.Size() - 1) / c.Size()
		hist := c.Malloc(slots)

		// Phase 1: local counting (combine at source).
		local := make([]uint64, bins)
		for i := 0; i < *samples; i++ {
			v := n.RNG.Uint64() % 100
			bin := int(v) * bins / 100
			local[bin]++
		}

		// Phase 2: each node ADDS its local counts into the owners. The
		// fabric has no remote atomic add, so each contributor writes to
		// its own per-source slot... simplest correct scheme at this size:
		// node k sums contributions gathered via the collective.
		for b := 0; b < bins; b++ {
			total := c.SumU64(local[b])
			owner := b % c.Size()
			if c.Rank() == owner {
				cur := c.Local(hist)
				cur[b/c.Size()] = total
				c.SetLocal(hist, cur)
			}
		}
		c.Barrier()

		// Phase 3: node 0 reads the whole histogram with one-sided gets.
		if c.Rank() == 0 {
			fmt.Println("distributed histogram (gathered with query-packet gets):")
			grand := uint64(0)
			for b := 0; b < bins; b++ {
				owner := b % c.Size()
				var v uint64
				if owner == 0 {
					v = c.Local(hist)[b/c.Size()]
				} else {
					v = c.Get(owner, hist, b/c.Size(), 1)[0]
				}
				grand += v
				bar := ""
				for i := uint64(0); i < v*40/uint64(*samples**nodes/bins+1); i++ {
					bar += "#"
				}
				fmt.Printf("  bin %2d [node %d]: %6d %s\n", b, owner, v, bar)
			}
			fmt.Printf("total samples: %d (expected %d)\n", grand, *samples**nodes)
		}
	})
	fmt.Printf("virtual time: %v\n", rep.Elapsed)
}
