// Command dvinfo prints the simulated testbed's configuration for a given
// node count — switch geometry, calibration constants, and the derived peak
// rates — plus the registered workloads, a quick reference for interpreting
// benchmark output.
//
//	dvinfo [-nodes 32] [-rails 1] [-planes 1] [-plane-policy hash]
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/apprt"
	_ "repro/internal/apps/all"
	"repro/internal/cluster"
	"repro/internal/dvswitch"
	"repro/internal/ib"
)

func main() {
	nodes := flag.Int("nodes", 32, "cluster nodes")
	rails := flag.Int("rails", 1, "VICs per node")
	planes := flag.Int("planes", 1, "Data Vortex switch planes behind each VIC boundary")
	policy := flag.String("plane-policy", "hash", "plane assignment for -planes > 1: hash or rr")
	flag.Parse()

	// Bad input is one line and exit 2, before anything is sized from it.
	pol, err := dvswitch.ParsePlanePolicy(*policy)
	if err == nil {
		err = apprt.RunSpec{Nodes: *nodes}.Validate()
	}
	if err == nil && (*rails < 1 || *planes < 1) {
		err = fmt.Errorf("-rails and -planes must be at least 1 (%d, %d)", *rails, *planes)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "dvinfo: %v\n", err)
		os.Exit(2)
	}

	cfg := cluster.DefaultConfig(*nodes)
	geom := dvswitch.ForPorts(*nodes * *rails)
	fmt.Printf("Testbed for %d nodes (x%d rails)\n", *nodes, *rails)
	fmt.Printf("\nData Vortex switch\n")
	fmt.Printf("  geometry        H=%d heights x A=%d angles = %d ports, %d cylinders\n",
		geom.Heights, geom.Angles, geom.Ports(), geom.Cylinders())
	fmt.Printf("  switching nodes %d (A*H*(log2 H + 1))\n",
		geom.Angles*geom.Heights*geom.Cylinders())
	fmt.Printf("  cycle time      %v (peak payload %.2f GB/s/port)\n",
		dvswitch.DefaultCycleTime, 8/dvswitch.DefaultCycleTime.Seconds()/1e9)
	if *planes > 1 {
		fmt.Printf("  planes          %d parallel fabrics behind each VIC boundary, %s plane policy (aggregate peak %.2f GB/s/port)\n",
			*planes, pol, float64(*planes)*8/dvswitch.DefaultCycleTime.Seconds()/1e9)
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
	scaled := ib.ForNodes(*nodes)
	fmt.Printf("  scaled tree     %d nodes/leaf, %d spines (full bisection for %d nodes; apprt IBScaled)\n",
		scaled.LeafSize, scaled.Spines, *nodes)
	fmt.Printf("  MPI eager limit %d B, overheads %v send / %v recv\n",
		cfg.MPI.EagerLimit, cfg.MPI.SendOverhead, cfg.MPI.RecvOverhead)
	fmt.Printf("\nHost CPU model: %.0f GFLOPS, %v/random access, %v/small op\n",
		cfg.CPU.GFLOPS, cfg.CPU.RandomAccess, cfg.CPU.SmallOp)
	fmt.Printf("\nEvent kernel: one calendar queue, single-threaded\n")
	fmt.Printf("  time grain      %v per calendar bucket (the switch cycle)\n", dvswitch.DefaultCycleTime)
	fmt.Printf("\nRegistered workloads (dvbench -app NAME)\n")
	for _, a := range apprt.Apps() {
		rel := ""
		if a.Reliable {
			rel = " [reliable]"
		}
		fmt.Printf("  %-10s %s%s\n", a.Name, a.Desc, rel)
	}
}
