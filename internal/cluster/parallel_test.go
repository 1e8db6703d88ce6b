package cluster

import (
	"sync"
	"testing"

	"repro/internal/vic"
)

// scatterBody is a small all-to-all workload over the cycle-accurate Data
// Vortex stack: every node puts a word to every other node, fences, and
// verifies what it received. Irregular enough to exercise deflections and
// injection queueing.
func scatterBody(t *testing.T) func(n *Node) {
	return func(n *Node) {
		base := uint32(64)
		n.DV.Barrier()
		for d := 0; d < n.DV.Size(); d++ {
			if d == n.ID {
				continue
			}
			n.DV.Put(vic.DMACached, d, base+uint32(n.ID), vic.NoGC,
				[]uint64{uint64(n.ID)<<8 | uint64(d)})
		}
		n.DV.Barrier()
		for s := 0; s < n.DV.Size(); s++ {
			if s == n.ID {
				continue
			}
			if got := n.DV.Read(base+uint32(s), 1); got[0] != uint64(s)<<8|uint64(n.ID) {
				t.Errorf("node %d: word from %d = %x", n.ID, s, got[0])
			}
		}
	}
}

// TestClusterDenseVsSparseSwitch is the end-to-end differential: a full
// cycle-accurate cluster run must produce an identical Report whether the
// switch core steps densely (seed reference) or sparsely.
func TestClusterDenseVsSparseSwitch(t *testing.T) {
	run := func(dense bool) *Report {
		cfg := DefaultConfig(8)
		cfg.Stacks = StackDV
		cfg.CycleAccurate = true
		cfg.denseSwitch = dense
		return Run(cfg, scatterBody(t))
	}
	dr, sr := run(true), run(false)
	if dr.Elapsed != sr.Elapsed {
		t.Errorf("elapsed diverges: dense %v, sparse %v", dr.Elapsed, sr.Elapsed)
	}
	if dr.DVFabric != sr.DVFabric {
		t.Errorf("fabric stats diverge:\ndense:  %+v\nsparse: %+v", dr.DVFabric, sr.DVFabric)
	}
	for i := range dr.NodeTimes {
		if dr.NodeTimes[i] != sr.NodeTimes[i] {
			t.Errorf("node %d time diverges: %v vs %v", i, dr.NodeTimes[i], sr.NodeTimes[i])
		}
	}
	if dr.DVFabric.Delivered == 0 {
		t.Fatal("no traffic; differential vacuous")
	}
}

// TestConcurrentRunsDeterministic runs the same configuration on several
// goroutines at once and serially, expecting bit-identical reports — the
// property the bench package's parallel sweep runner relies on.
func TestConcurrentRunsDeterministic(t *testing.T) {
	run := func() *Report {
		cfg := DefaultConfig(6)
		cfg.Stacks = StackDV
		cfg.CycleAccurate = true
		return Run(cfg, scatterBody(t))
	}
	want := run()
	const n = 8
	got := make([]*Report, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i] = run()
		}(i)
	}
	wg.Wait()
	for i, r := range got {
		if r.Elapsed != want.Elapsed || r.DVFabric != want.DVFabric {
			t.Errorf("concurrent run %d diverges from serial: elapsed %v vs %v",
				i, r.Elapsed, want.Elapsed)
		}
	}
}
