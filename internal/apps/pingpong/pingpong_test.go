package pingpong

import (
	"testing"

	"repro/internal/cluster"
)

func TestAllModesProduceBandwidth(t *testing.T) {
	for _, m := range []Mode{DVWrNoCached, DVWrCached, DVDMACached, MPIIB} {
		r := Run(m, Params{Words: 64, Iters: 20})
		if r.Bandwidth <= 0 {
			t.Errorf("%v: bandwidth %f", m, r.Bandwidth)
		}
		if r.RTT <= 0 {
			t.Errorf("%v: rtt %v", m, r.RTT)
		}
	}
}

// TestFigure3Shape pins the qualitative results of Figure 3:
//   - direct writes plateau at the PCIe lane limit, with cached headers
//     roughly doubling the no-cache plateau;
//   - DMA with cached headers approaches the 4.4 GB/s network peak for
//     large messages (the paper measures 99.4% at 256 Ki words);
//   - MPI reaches only ~72% of its 6.8 GB/s peak but beats Data Vortex in
//     the 32–128 word range;
//   - at very small messages Data Vortex direct writes beat MPI.
func TestFigure3Shape(t *testing.T) {
	const iters = 6
	big := 1 << 16 // 64 Ki words = 512 KiB
	dwrN := Run(DVWrNoCached, Params{Words: big, Iters: iters})
	dwrC := Run(DVWrCached, Params{Words: big, Iters: iters})
	dma := Run(DVDMACached, Params{Words: big, Iters: iters})
	mpiB := Run(MPIIB, Params{Words: big, Iters: iters})

	if dwrN.Bandwidth > 0.3e9 {
		t.Errorf("DWr/NoCached plateau %0.2f GB/s, want ~0.25", dwrN.Bandwidth/1e9)
	}
	ratio := dwrC.Bandwidth / dwrN.Bandwidth
	if ratio < 1.7 || ratio > 2.3 {
		t.Errorf("cached/no-cached ratio %0.2f, want ~2", ratio)
	}
	if dma.PercentPeak() < 90 {
		t.Errorf("DMA/Cached reaches %0.1f%% of peak, want >90%%", dma.PercentPeak())
	}
	if mpiB.PercentPeak() < 60 || mpiB.PercentPeak() > 85 {
		t.Errorf("MPI reaches %0.1f%% of peak, want ~72%%", mpiB.PercentPeak())
	}
	// Absolute large-message ordering: MPI above DV (Fig 3a).
	if mpiB.Bandwidth < dma.Bandwidth {
		t.Errorf("MPI large-message bandwidth (%0.2f) should exceed DV DMA (%0.2f)",
			mpiB.Bandwidth/1e9, dma.Bandwidth/1e9)
	}

	// Mid-size window: MPI beats every DV mode at 64 words.
	mid := 64
	mpiMid := Run(MPIIB, Params{Words: mid, Iters: iters})
	dmaMid := Run(DVDMACached, Params{Words: mid, Iters: iters})
	if mpiMid.Bandwidth < dmaMid.Bandwidth {
		t.Errorf("at %d words MPI (%0.3f GB/s) should beat DV DMA (%0.3f GB/s)",
			mid, mpiMid.Bandwidth/1e9, dmaMid.Bandwidth/1e9)
	}

	// Tiny messages: DV direct write wins on latency.
	mpiOne := Run(MPIIB, Params{Words: 1, Iters: iters})
	dwrOne := Run(DVWrNoCached, Params{Words: 1, Iters: iters})
	if dwrOne.RTT > mpiOne.RTT {
		t.Errorf("1-word RTT: DV %v should beat MPI %v", dwrOne.RTT, mpiOne.RTT)
	}
}

func TestDeterministic(t *testing.T) {
	a := Run(DVDMACached, Params{Words: 128, Iters: 5})
	b := Run(DVDMACached, Params{Words: 128, Iters: 5})
	if a.RTT != b.RTT {
		t.Fatalf("non-deterministic: %v vs %v", a.RTT, b.RTT)
	}
}

// TestMultiRailScalesBandwidth: striping across two VICs per node must lift
// the large-transfer ceiling well past a single rail's 4.4 GB/s.
func TestMultiRailScalesBandwidth(t *testing.T) {
	one := Run(DVDMACached, Params{Words: 1 << 15, Iters: 4, Platform: cluster.Platform{VICsPerNode: 1}})
	two := Run(DVDMACached, Params{Words: 1 << 15, Iters: 4, Platform: cluster.Platform{VICsPerNode: 2}})
	if two.Bandwidth < 1.4*one.Bandwidth {
		t.Fatalf("2 rails: %.2f GB/s vs 1 rail %.2f GB/s; expected ~1.6x",
			two.Bandwidth/1e9, one.Bandwidth/1e9)
	}
	if two.Bandwidth < 4.4e9 {
		t.Fatalf("2 rails should exceed single-rail line rate, got %.2f GB/s", two.Bandwidth/1e9)
	}
}
