package main

import (
	"fmt"
	"io"

	"repro/internal/apprt"
	"repro/internal/cluster"
	"repro/internal/comm"
	"repro/internal/dvswitch"
	"repro/internal/ib"
	"repro/internal/mpi"
	"repro/internal/vic"
)

// paperNodes is the size of the paper's testbed, what -info describes when
// neither -nodes nor -app names another.
const paperNodes = 32

// printInfo writes to w the simulated testbed's configuration for the
// run-spec flags — switch geometry, the layers' calibration constants, and
// the derived peak rates — plus the registered workloads, a quick reference
// for interpreting benchmark output.
func printInfo(w io.Writer, run *apprt.RunFlags) error {
	ref := paperNodes
	if run.App != "" {
		apps, err := run.Apps()
		if err != nil {
			return err
		}
		ref = apps[0].RefNodes
	}
	// The Data Vortex spec is the one whose switch geometry is validated.
	spec, err := run.Spec(comm.DV, ref)
	if err != nil {
		return err
	}
	nodes := spec.Nodes
	geom := dvswitch.ForPorts(nodes)
	vp, ibp, mp, cpu := vic.DefaultParams(), ib.DefaultParams(), mpi.DefaultParams(), cluster.DefaultCPU()
	fmt.Fprintf(w, "Testbed for %d nodes (x1 rails)\n", nodes)
	fmt.Fprintf(w, "\nData Vortex switch\n")
	fmt.Fprintf(w, "  geometry        H=%d heights x A=%d angles = %d ports, %d cylinders\n",
		geom.Heights, geom.Angles, geom.Ports(), geom.Cylinders())
	fmt.Fprintf(w, "  switching nodes %d (A*H*(log2 H + 1))\n",
		geom.Angles*geom.Heights*geom.Cylinders())
	fmt.Fprintf(w, "  cycle time      %v (peak payload %.2f GB/s/port)\n",
		dvswitch.DefaultCycleTime, 8/dvswitch.DefaultCycleTime.Seconds()/1e9)
	if spec.DVPlanes > 1 {
		fmt.Fprintf(w, "  planes          %d parallel fabrics behind each VIC boundary, planes picked by a (src, dst) hash (aggregate peak %.2f GB/s/port)\n",
			spec.DVPlanes, float64(spec.DVPlanes)*8/dvswitch.DefaultCycleTime.Seconds()/1e9)
	} else {
		fmt.Fprintf(w, "  planes          1 (the paper's single-plane testbed)\n")
	}
	fmt.Fprintf(w, "\nVIC\n")
	fmt.Fprintf(w, "  DV Memory       %d MB (%d words)\n", vp.MemWords*8>>20, vp.MemWords)
	fmt.Fprintf(w, "  group counters  %d (scratch %d, barrier %d/%d)\n",
		vp.GroupCounters, vp.ScratchGC, vp.BarrierGCA, vp.BarrierGCB)
	fmt.Fprintf(w, "  DMA table       %d entries, engine %.1f GB/s, setup %v\n",
		vp.DMATableEntries, vp.DMABW/1e9, vp.DMASetup)
	fmt.Fprintf(w, "  PIO write       %.0f MB/s (single PCIe lane), latency %v\n",
		vp.PIOWriteBW/1e6, vp.PIOLatency)
	fmt.Fprintf(w, "\nInfiniBand (FDR) / MPI\n")
	fmt.Fprintf(w, "  link peak       %.1f GB/s (stream %.1f GB/s = %.0f%%)\n",
		ibp.LinkBW/1e9, ibp.StreamBW/1e9, 100*ibp.StreamBW/ibp.LinkBW)
	fmt.Fprintf(w, "  fat tree        %d nodes/leaf, %d spines, hop %v\n",
		ibp.LeafSize, ibp.Spines, ibp.HopLatency)
	scaled := ib.ForNodes(nodes)
	fmt.Fprintf(w, "  scaled tree     %d nodes/leaf, %d spines (full bisection for %d nodes; apprt IBScaled)\n",
		scaled.LeafSize, scaled.Spines, nodes)
	fmt.Fprintf(w, "  MPI eager limit %d B, overheads %v send / %v recv\n",
		mp.EagerLimit, mp.SendOverhead, mp.RecvOverhead)
	fmt.Fprintf(w, "\nHost CPU model: %.0f GFLOPS, %v/random access, %v/small op\n",
		cpu.GFLOPS, cpu.RandomAccess, cpu.SmallOp)
	fmt.Fprintf(w, "\nEvent kernel: one (at, seq) binary heap, single-threaded\n")
	fmt.Fprintf(w, "\nRegistered workloads (dvbench -app NAME)\n")
	for _, a := range apprt.Apps() {
		rel := ""
		if a.Reliable {
			rel = " [reliable]"
		}
		fmt.Fprintf(w, "  %-10s %s%s\n", a.Name, a.Desc, rel)
	}
	return nil
}
