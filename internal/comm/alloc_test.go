package comm_test

import (
	"runtime"
	"runtime/debug"
	"testing"

	"repro/internal/cluster"
	"repro/internal/comm"
)

// raceBuild reports whether the test binary was built with -race, whose
// instrumentation changes what allocates.
func raceBuild() bool {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return false
	}
	for _, s := range bi.Settings {
		if s.Key == "-race" {
			return s.Value == "true"
		}
	}
	return false
}

// a2aAlloc returns the heap bytes one Data Vortex all-to-all of words words
// per peer allocates on the cycle-accurate switch or the fast model, cluster
// set-up included; the send blocks are built before measuring.
func a2aAlloc(nodes, words int, cycleAccurate bool) uint64 {
	cfg := cluster.DefaultConfig(nodes)
	cfg.Stacks = comm.DV.Stacks()
	cfg.CycleAccurate = cycleAccurate
	blocks := make([][][]byte, nodes)
	for src := range blocks {
		blocks[src] = make([][]byte, nodes)
		for d := range blocks[src] {
			blocks[src][d] = make([]byte, 8*words)
			for i := range blocks[src][d] {
				blocks[src][d][i] = byte(src*7 + d*3 + i)
			}
		}
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cluster.Run(cfg, func(n *cluster.Node) {
		comm.New(comm.DV, n).Alltoall(blocks[n.ID])
	})
	runtime.ReadMemStats(&m1)
	return m1.TotalAlloc - m0.TotalAlloc
}

// TestAlltoallBytesPerWord bounds what the Data Vortex all-to-all allocates
// per payload word, set-up cancelled out by differencing two exchange sizes,
// on each switch model. Both store the backlog once and add the 8 bytes a
// word takes in the returned blocks, the cluster's one pool of chunk-sized
// inject batches and DV Memory pages.
//
// On the cycle-accurate switch the backlog is a 24-byte queue record on a
// 416-byte page of 16 (53.1 bytes a word in all on go1.24). The 32-byte
// record it replaced (63.1), a flat []Word ahead of the queue (+40 bytes a
// word) or a fresh read-back row per source each break the bound; the
// copying scatter this replaced allocated 151.6.
//
// On the fast model every word of the exchange waits for its delivery at
// once, as a 64-byte record (48 and its kernel key) on a 480-byte train page
// of 7: 68.6 bytes a word. The bound is that plus the 27 bytes a word the
// cycle-accurate row spends outside its queue (89.4 in all on go1.24). The
// 112-byte pooled delivery entry and its pool slot that the record replaced
// came to 175.1.
func TestAlltoallBytesPerWord(t *testing.T) {
	if raceBuild() {
		t.Skip("-race instrumentation allocates")
	}
	const nodes, small, large = 32, 1, 65
	for _, tc := range []struct {
		name          string
		cycleAccurate bool
		bound         float64
	}{
		{"cycle-accurate", true, 60},
		{"fast model", false, 96},
	} {
		t.Run(tc.name, func(t *testing.T) {
			extra := a2aAlloc(nodes, large, tc.cycleAccurate) - a2aAlloc(nodes, small, tc.cycleAccurate)
			perWord := float64(extra) / float64(nodes*(nodes-1)*(large-small))
			t.Logf("%.1f bytes allocated per payload word", perWord)
			if perWord > tc.bound {
				t.Errorf("%.1f bytes allocated per payload word, want <= %.0f", perWord, tc.bound)
			}
		})
	}
}
