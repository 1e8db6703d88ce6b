package cluster

import (
	"testing"

	"repro/internal/dvswitch"
	"repro/internal/ib"
	"repro/internal/mpi"
	"repro/internal/sim"
	"repro/internal/vic"
)

// TestCalibrationMatchesPaperStatements pins every headline constant to the
// number the paper states, so a drive-by retune cannot silently detach the
// model from its source (§II, §V).
func TestCalibrationMatchesPaperStatements(t *testing.T) {
	vp, ibp, mp := vic.DefaultParams(), ib.DefaultParams(), mpi.DefaultParams()

	// "nominal peak bandwidth (4.4 GB/s)": one 8-byte payload per switch
	// cycle must give 4.4 GB/s within rounding.
	payloadBW := 8.0 / dvswitch.DefaultCycleTime.Seconds()
	if payloadBW < 4.39e9 || payloadBW > 4.41e9 {
		t.Errorf("switch cycle gives %.3f GB/s payload, paper says 4.4", payloadBW/1e9)
	}

	// "limited by the PCIe lane read bandwidth (500 MB/s, only one lane)".
	if vp.PIOWriteBW != 500e6 {
		t.Errorf("PIO write bandwidth %.0f MB/s, paper says 500", vp.PIOWriteBW/1e6)
	}

	// "the Infiniband nominal peak bandwidth (6.8 GB/s)".
	if ibp.LinkBW != 6.8e9 {
		t.Errorf("IB link bandwidth %.1f GB/s, paper says 6.8", ibp.LinkBW/1e9)
	}

	// "the Infiniband network only achieves about 72% of the peak".
	eff := ibp.StreamBW / ibp.LinkBW
	if eff < 0.70 || eff < 0 || eff > 0.74 {
		t.Errorf("IB stream efficiency %.0f%%, paper says ~72%%", eff*100)
	}

	// "All packets have a 64-bit header and carry a 64-bit payload."
	if dvswitch.WireBytes != 16 {
		t.Errorf("wire packet is %d bytes, paper says 16", dvswitch.WireBytes)
	}

	// "up to 64 group counters ... one reserved as a scratch ... another 2
	// reserved for a group barrier synchronization".
	if vp.GroupCounters != 64 || vp.ScratchGC != 0 ||
		vp.BarrierGCA == vp.BarrierGCB ||
		vp.BarrierGCA >= 64 || vp.BarrierGCB >= 64 {
		t.Errorf("group counter layout %+v does not match the paper", vp)
	}

	// "32 MB of Quad Data Rate Static Random Access Memory".
	if vp.MemWords*8 != 32<<20 {
		t.Errorf("DV Memory is %d MB, paper says 32", vp.MemWords*8>>20)
	}

	// "a DMA Table with 8192 entries".
	if vp.DMATableEntries != 8192 {
		t.Errorf("DMA table has %d entries, paper says 8192", vp.DMATableEntries)
	}

	// "C scales with H as C = log2 H + 1 ... number of nodes scales with
	// the number of ports as Nt log2 Nt" — geometry sanity at 32 ports.
	p := dvswitch.ForPorts(32)
	if p.Cylinders() != 4 {
		t.Errorf("32-port switch has %d cylinders, want log2(8)+1 = 4", p.Cylinders())
	}

	// "DMA transfers to the VIC run up to 4 times faster than direct
	// writes": the DMA engine must be at least 4x the PIO lane.
	if vp.DMABW < 4*vp.PIOWriteBW {
		t.Errorf("DMA %.1f GB/s is not 4x the %.1f GB/s PIO lane",
			vp.DMABW/1e9, vp.PIOWriteBW/1e9)
	}

	// Small-message MPI latency lands in the openmpi-over-FDR range.
	oneWay := mp.SendOverhead + ibp.HopLatency + mp.RecvOverhead
	if oneWay < 500*sim.Nanosecond || oneWay > 3*sim.Microsecond {
		t.Errorf("modelled MPI one-way floor %v outside the plausible range", oneWay)
	}
}
