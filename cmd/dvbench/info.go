package main

import (
	"fmt"

	"repro/internal/apprt"
	"repro/internal/cluster"
	"repro/internal/comm"
	"repro/internal/dvswitch"
	"repro/internal/ib"
)

// paperNodes is the size of the paper's testbed, what -info describes when
// neither -nodes nor -app names another.
const paperNodes = 32

// printInfo prints the simulated testbed's configuration for the run-spec
// flags — switch geometry, calibration constants, and the derived peak rates
// — plus the registered workloads, a quick reference for interpreting
// benchmark output.
func printInfo(run *apprt.RunFlags) error {
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
	cfg := cluster.DefaultConfig(nodes)
	geom := dvswitch.ForPorts(nodes)
	fmt.Printf("Testbed for %d nodes (x1 rails)\n", nodes)
	fmt.Printf("\nData Vortex switch\n")
	fmt.Printf("  geometry        H=%d heights x A=%d angles = %d ports, %d cylinders\n",
		geom.Heights, geom.Angles, geom.Ports(), geom.Cylinders())
	fmt.Printf("  switching nodes %d (A*H*(log2 H + 1))\n",
		geom.Angles*geom.Heights*geom.Cylinders())
	fmt.Printf("  cycle time      %v (peak payload %.2f GB/s/port)\n",
		dvswitch.DefaultCycleTime, 8/dvswitch.DefaultCycleTime.Seconds()/1e9)
	if spec.DVPlanes > 1 {
		fmt.Printf("  planes          %d parallel fabrics behind each VIC boundary, planes picked by a (src, dst) hash (aggregate peak %.2f GB/s/port)\n",
			spec.DVPlanes, float64(spec.DVPlanes)*8/dvswitch.DefaultCycleTime.Seconds()/1e9)
	} else {
		fmt.Printf("  planes          1 (the paper's single-plane testbed)\n")
	}
	fmt.Printf("\nVIC\n")
	fmt.Printf("  DV Memory       %d MB (%d words)\n", cfg.VIC.MemWords*8>>20, cfg.VIC.MemWords)
	fmt.Printf("  group counters  %d (scratch %d, barrier %d/%d)\n",
		cfg.VIC.GroupCounters, cfg.VIC.ScratchGC, cfg.VIC.BarrierGCA, cfg.VIC.BarrierGCB)
	fmt.Printf("  DMA table       %d entries, engine %.1f GB/s, setup %v\n",
		cfg.VIC.DMATableEntries, cfg.VIC.DMABW/1e9, cfg.VIC.DMASetup)
	fmt.Printf("  PIO write       %.0f MB/s (single PCIe lane), latency %v\n",
		cfg.VIC.PIOWriteBW/1e6, cfg.VIC.PIOLatency)
	fmt.Printf("\nInfiniBand (FDR) / MPI\n")
	fmt.Printf("  link peak       %.1f GB/s (stream %.1f GB/s = %.0f%%)\n",
		cfg.IB.LinkBW/1e9, cfg.IB.StreamBW/1e9, 100*cfg.IB.StreamBW/cfg.IB.LinkBW)
	fmt.Printf("  fat tree        %d nodes/leaf, %d spines, hop %v\n",
		cfg.IB.LeafSize, cfg.IB.Spines, cfg.IB.HopLatency)
	scaled := ib.ForNodes(nodes)
	fmt.Printf("  scaled tree     %d nodes/leaf, %d spines (full bisection for %d nodes; apprt IBScaled)\n",
		scaled.LeafSize, scaled.Spines, nodes)
	fmt.Printf("  MPI eager limit %d B, overheads %v send / %v recv\n",
		cfg.MPI.EagerLimit, cfg.MPI.SendOverhead, cfg.MPI.RecvOverhead)
	fmt.Printf("\nHost CPU model: %.0f GFLOPS, %v/random access, %v/small op\n",
		cfg.CPU.GFLOPS, cfg.CPU.RandomAccess, cfg.CPU.SmallOp)
	fmt.Printf("\nEvent kernel: one (at, seq) binary heap, single-threaded\n")
	fmt.Printf("\nRegistered workloads (dvbench -app NAME)\n")
	for _, a := range apprt.Apps() {
		rel := ""
		if a.Reliable {
			rel = " [reliable]"
		}
		fmt.Printf("  %-10s %s%s\n", a.Name, a.Desc, rel)
	}
	return nil
}
