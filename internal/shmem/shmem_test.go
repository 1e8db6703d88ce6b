package shmem

import (
	"testing"

	"repro/internal/cluster"
	"repro/internal/sim"
)

// spmd runs body on an n-node DV-only cluster with a fresh Ctx per node.
func spmd(n int, body func(c *Ctx, nd *cluster.Node)) {
	cfg := cluster.DefaultConfig(n)
	cfg.Stacks = cluster.StackDV
	cluster.Run(cfg, func(nd *cluster.Node) {
		body(New(nd.DV), nd)
	})
}

func TestPutFenceGet(t *testing.T) {
	spmd(4, func(c *Ctx, nd *cluster.Node) {
		s := c.Malloc(8)
		right := (c.Rank() + 1) % 4
		c.Put(right, s, 0, []uint64{uint64(10 + c.Rank()), uint64(20 + c.Rank())})
		c.Fence()
		left := (c.Rank() + 3) % 4
		local := c.Local(s)
		if local[0] != uint64(10+left) || local[1] != uint64(20+left) {
			t.Errorf("node %d: local = %v", c.Rank(), local[:2])
		}
		// Remote read of a third party.
		opposite := (c.Rank() + 2) % 4
		got := c.Get(opposite, s, 0, 2)
		wantSrc := (opposite + 3) % 4
		if got[0] != uint64(10+wantSrc) {
			t.Errorf("node %d: get from %d = %v", c.Rank(), opposite, got)
		}
	})
}

func TestFenceOrderingUnderSkew(t *testing.T) {
	// A skewed producer and an eager consumer: after Fence, the consumer
	// must observe every pre-fence put despite wildly different schedules.
	const n = 6
	const words = 200
	spmd(n, func(c *Ctx, nd *cluster.Node) {
		s := c.Malloc(words)
		nd.Compute(sim.Time(c.Rank()) * 3 * sim.Microsecond) // skew entry
		vals := make([]uint64, words)
		for i := range vals {
			vals[i] = uint64(c.Rank()*1000 + i)
		}
		c.Put((c.Rank()+1)%n, s, 0, vals)
		c.Fence()
		local := c.Local(s)
		src := (c.Rank() + n - 1) % n
		for i, v := range local {
			if v != uint64(src*1000+i) {
				t.Fatalf("node %d: word %d = %d after fence", c.Rank(), i, v)
			}
		}
	})
}

func TestRepeatedFences(t *testing.T) {
	spmd(4, func(c *Ctx, nd *cluster.Node) {
		s := c.Malloc(1)
		for round := 0; round < 8; round++ {
			c.Put((c.Rank()+1)%4, s, 0, []uint64{uint64(round*10 + c.Rank())})
			c.Fence()
			src := (c.Rank() + 3) % 4
			if got := c.Local(s)[0]; got != uint64(round*10+src) {
				t.Fatalf("round %d: node %d sees %d", round, c.Rank(), got)
			}
		}
	})
}

func TestCollectives(t *testing.T) {
	spmd(5, func(c *Ctx, nd *cluster.Node) {
		if sum := c.SumU64(uint64(c.Rank() + 1)); sum != 15 {
			t.Errorf("SumU64 = %d", sum)
		}
		if got := c.Gather(float64(c.Rank()) * 2.5); len(got) != 5 || got[4] != 10 || got[c.Rank()] != float64(c.Rank())*2.5 {
			t.Errorf("Gather = %v", got)
		}
	})
}

func TestGetLargeChunksAcrossBounce(t *testing.T) {
	spmd(2, func(c *Ctx, nd *cluster.Node) {
		const words = 10000 // exceeds the 4096-word bounce buffer
		s := c.Malloc(words)
		vals := make([]uint64, words)
		for i := range vals {
			vals[i] = uint64(c.Rank()*1_000_000 + i)
		}
		c.SetLocal(s, vals)
		c.Barrier()
		got := c.Get(1-c.Rank(), s, 0, words)
		for i, v := range got {
			if v != uint64((1-c.Rank())*1_000_000+i) {
				t.Fatalf("node %d: got[%d] = %d", c.Rank(), i, v)
			}
		}
	})
}

func TestSetLocalAndLocal(t *testing.T) {
	spmd(1, func(c *Ctx, nd *cluster.Node) {
		s := c.Malloc(3)
		c.SetLocal(s, []uint64{7, 8, 9})
		if got := c.Local(s); got[2] != 9 {
			t.Errorf("Local = %v", got)
		}
	})
}

func TestPutBoundsPanics(t *testing.T) {
	spmd(2, func(c *Ctx, nd *cluster.Node) {
		if c.Rank() != 0 {
			return
		}
		defer func() {
			if recover() == nil {
				t.Error("expected panic")
			}
		}()
		s := c.Malloc(2)
		c.Put(1, s, 1, []uint64{1, 2}) // spills past the object
	})
}

// TestFencePropertyRandomTraffic: arbitrary random put patterns, fenced in
// rounds, must always leave every pre-fence put visible.
func TestFencePropertyRandomTraffic(t *testing.T) {
	const n = 5
	const rounds = 4
	spmd(n, func(c *Ctx, nd *cluster.Node) {
		rng := sim.NewRNG(uint64(c.Rank())*77 + 5)
		s := c.Malloc(n * rounds) // slot per (writer, round)
		for round := 0; round < rounds; round++ {
			// Write a random subset of peers this round.
			wrote := make([]bool, n)
			for d := 0; d < n; d++ {
				if d == c.Rank() || rng.Float64() < 0.4 {
					continue
				}
				wrote[d] = true
				c.Put(d, s, c.Rank()*rounds+round,
					[]uint64{uint64(c.Rank()*1000 + round)})
			}
			c.Fence()
			// Everything this node wrote must now be readable remotely.
			for d := 0; d < n; d++ {
				if !wrote[d] {
					continue
				}
				got := c.Get(d, s, c.Rank()*rounds+round, 1)[0]
				if got != uint64(c.Rank()*1000+round) {
					t.Errorf("round %d: put to %d not visible: %d", round, d, got)
				}
			}
		}
	})
}
