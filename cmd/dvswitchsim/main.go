// Command dvswitchsim runs the cycle-accurate Data Vortex switch standalone
// under synthetic traffic, reporting throughput, latency, and deflection
// statistics — the switch-level studies of the optical Data Vortex
// literature the paper builds on (refs [14], [15]).
//
// Usage:
//
//	dvswitchsim [-heights 8] [-angles 4] [-pattern uniform|hotspot|tornado|bursty]
//	            [-load 0.5] [-cycles 20000]
//	            [-droprate 1e-4] [-corruptrate 1e-5] [-faultwindow 1000:5000]
//	            [-metrics out.prom]
//
// With -metrics the run also traces every packet through the attribution
// layer and prints the stage-latency breakdown (queue wait vs fabric
// transit, at the 1818 ps default cycle period) and the cylinder×angle
// deflection census alongside the Prometheus dump.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/dvswitch"
	"repro/internal/faultplan"
	"repro/internal/obs"
	"repro/internal/obs/attr"
	"repro/internal/sim"
)

// parseWindow parses a "start:end" cycle window; end may be omitted or 0 for
// "until the end of the run".
func parseWindow(s string) (start, end int64, err error) {
	if s == "" {
		return 0, 0, nil
	}
	lo, hi, _ := strings.Cut(s, ":")
	if start, err = strconv.ParseInt(lo, 10, 64); err != nil {
		return 0, 0, fmt.Errorf("bad window start %q", lo)
	}
	if hi != "" {
		if end, err = strconv.ParseInt(hi, 10, 64); err != nil {
			return 0, 0, fmt.Errorf("bad window end %q", hi)
		}
	}
	if start < 0 || end < 0 || (end > 0 && end <= start) {
		return 0, 0, fmt.Errorf("invalid window %q", s)
	}
	return start, end, nil
}

func main() {
	heights := flag.Int("heights", 8, "cylinder heights H (power of two)")
	angles := flag.Int("angles", 4, "angles per ring A")
	pattern := flag.String("pattern", "uniform", "traffic pattern: uniform, hotspot, tornado, bursty")
	load := flag.Float64("load", 0.5, "offered load per port (packets/cycle)")
	cycles := flag.Int("cycles", 20000, "injection cycles")
	seed := flag.Uint64("seed", 1, "RNG seed")
	faults := flag.Int("faults", 0, "number of random dead mid-fabric switching nodes")
	droprate := flag.Float64("droprate", 0, "per-link-traversal drop probability")
	corruptrate := flag.Float64("corruptrate", 0, "per-link-traversal payload-corruption probability")
	faultwindow := flag.String("faultwindow", "", "cycle window start:end for link faults (default: whole run)")
	metricsPath := flag.String("metrics", "",
		"write a Prometheus text dump of the run's instruments to this file ('-' for stdout) and print the stage-attribution summary")
	budgetWall := flag.Duration("budget-wall", 0,
		"wall-clock budget; on expiry stop at a cycle boundary and report partial stats (exit 3)")
	flag.Parse()

	p := dvswitch.Params{Heights: *heights, Angles: *angles}
	if err := p.Validate(); err != nil {
		fmt.Fprintf(os.Stderr, "dvswitchsim: %v\n", err)
		os.Exit(2)
	}
	c := dvswitch.NewCore(p)
	c.Deliver = func(dvswitch.Packet, int64) {}
	var reg *obs.Registry
	var tracer *attr.Tracer
	// Timebase for the attribution stamps: the fleet-wide default cycle
	// period, so stage durations read in the same units as cluster runs.
	const ct = dvswitch.DefaultCycleTime
	if *metricsPath != "" {
		reg = obs.NewRegistry()
		c.SetObs(reg)
		// Standalone attribution: Begin at injection, inject_wait while the
		// packet sits in its port queue, fabric from the cycle it enters the
		// mesh (one pump per hop, delivered the cycle after its last hop, so
		// entry = eject − (hops+1) cycles — the same derivation the cluster
		// uses). The host-side stages don't exist here and stay zero.
		tracer = attr.NewTracer(&attr.Config{Sample: 1, Seed: *seed})
		c.SetHeat(tracer.HeatGrid(p.Cylinders(), p.Angles))
		c.Deliver = func(pkt dvswitch.Packet, cycle int64) {
			if pkt.Flow != 0 {
				eject := sim.Time(cycle) * ct
				entry := eject - sim.Time(pkt.Hops+1)*ct
				tracer.StampFabric(pkt.Flow, entry, eject, pkt.Hops, pkt.Deflections)
				tracer.Complete(pkt.Flow, eject)
			}
		}
	}
	rng := sim.NewRNG(*seed)
	for k := 0; k < *faults; k++ {
		cl := 1 + rng.Intn(p.Cylinders()-1)
		c.SetFaulty(cl, rng.Intn(p.Heights), rng.Intn(p.Angles), true)
	}
	if *droprate > 0 || *corruptrate > 0 {
		wStart, wEnd, err := parseWindow(*faultwindow)
		if err != nil {
			fmt.Fprintf(os.Stderr, "dvswitchsim: %v\n", err)
			os.Exit(2)
		}
		plan := faultplan.Plan{Seed: *seed}
		c.SetFaultProbs(dvswitch.FaultProbs{
			Drop: *droprate, Corrupt: *corruptrate,
			StartCycle: wStart, EndCycle: wEnd,
		}, plan.EntityRNG("dvswitch-core", 0))
	}
	ports := p.Ports()
	burstLeft := make([]int, ports)
	hot := ports / 3
	wall := time.Now()
	budgetHit := false
	ranCycles := 0
	for cy := 0; cy < *cycles; cy++ {
		// Watchdog: poll the wall budget at cycle granularity so an oversized
		// run ends at a clean cycle boundary with a partial report, never a
		// hang or a mid-cycle kill.
		if *budgetWall > 0 && cy&1023 == 0 && time.Since(wall) > *budgetWall {
			budgetHit = true
			break
		}
		ranCycles = cy + 1
		for src := 0; src < ports; src++ {
			inject := rng.Float64() < *load
			if *pattern == "bursty" {
				if burstLeft[src] > 0 {
					inject = true
					burstLeft[src]--
				} else if rng.Float64() < *load/16 {
					burstLeft[src] = 15
					inject = true
				} else {
					inject = false
				}
			}
			if !inject || c.QueueLen(src) > 8 {
				continue
			}
			var dst int
			switch *pattern {
			case "hotspot":
				if rng.Float64() < 0.25 {
					dst = hot
				} else {
					dst = rng.Intn(ports)
				}
			case "tornado":
				dst = (src + ports/2) % ports
			case "uniform", "bursty":
				dst = rng.Intn(ports)
			default:
				fmt.Fprintf(os.Stderr, "dvswitchsim: unknown pattern %q\n", *pattern)
				os.Exit(2)
			}
			pkt := dvswitch.Packet{Src: src, Dst: dst}
			pkt.Flow = tracer.Begin(src, dst, attr.KindWrite, sim.Time(cy)*ct)
			c.Inject(pkt)
		}
		c.Step()
	}
	if budgetHit {
		*cycles = ranCycles
	}
	drain := c.RunUntilIdle(1 << 24)
	elapsed := time.Since(wall)
	st := c.Stats()
	fmt.Printf("switch %dx%d (%d ports, %d cylinders), pattern=%s load=%.2f\n",
		*heights, *angles, ports, p.Cylinders(), *pattern, *load)
	fmt.Printf("  injected       %d\n", st.Injected)
	fmt.Printf("  delivered      %d (drain took %d extra cycles)\n", st.Delivered, drain)
	fmt.Printf("  throughput     %.3f packets/port/cycle\n",
		float64(st.Delivered)/float64(*cycles)/float64(ports))
	fmt.Printf("  mean latency   %.2f cycles (p50<=%d p99<=%d max %d)\n",
		st.MeanLatency(), st.LatencyPercentile(50), st.LatencyPercentile(99), st.MaxLatency)
	fmt.Printf("  mean deflects  %.2f per packet\n", st.MeanDeflections())
	fmt.Printf("  queued cycles  %d total\n", st.QueuedCycles)
	simCycles := int64(*cycles) + drain
	fmt.Printf("  sim rate       %.2f Mcycles/s wall (%d cycles in %v)\n",
		float64(simCycles)/elapsed.Seconds()/1e6, simCycles, elapsed.Round(time.Millisecond))
	if *faults > 0 || *droprate > 0 {
		fmt.Printf("  dropped        %d (%d dead nodes, %.2g/link drop rate)\n",
			st.Dropped, *faults, *droprate)
	}
	if *corruptrate > 0 {
		fmt.Printf("  corrupted      %d (%.2g/link corrupt rate)\n", st.Corrupted, *corruptrate)
	}
	if reg != nil {
		out := os.Stdout
		if *metricsPath != "-" {
			f, err := os.Create(*metricsPath)
			if err != nil {
				fmt.Fprintf(os.Stderr, "dvswitchsim: %v\n", err)
				os.Exit(1)
			}
			defer f.Close()
			out = f
		}
		if err := reg.WritePrometheus(out); err != nil {
			fmt.Fprintf(os.Stderr, "dvswitchsim: %v\n", err)
			os.Exit(1)
		}
		if *metricsPath != "-" {
			fmt.Printf("  metrics        written to %s\n", *metricsPath)
		}
	}
	if tracer != nil {
		sum := tracer.Finalize()
		fmt.Println()
		if err := sum.WriteTable(os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "dvswitchsim: %v\n", err)
			os.Exit(1)
		}
		if sum.Heat.Total() > 0 {
			fmt.Println()
			if err := sum.WriteHeat(os.Stdout); err != nil {
				fmt.Fprintf(os.Stderr, "dvswitchsim: %v\n", err)
				os.Exit(1)
			}
		}
	}
	if budgetHit {
		fmt.Fprintf(os.Stderr,
			"dvswitchsim: wall budget exceeded after %d of the requested injection cycles; stats above are partial\n",
			ranCycles)
		os.Exit(3)
	}
}
