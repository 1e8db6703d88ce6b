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

// seed seeds the synthetic traffic, the dead-node placement and the link
// faults, so a command line always makes the same run.
const seed = 1

// config is the command line of one run.
type config struct {
	heights, angles int
	pattern         string
	load            float64
	cycles          int
	faults          int
	droprate        float64
	corruptrate     float64
	faultwindow     string
	metricsPath     string
	budgetWall      time.Duration
}

// validate rejects a command line no run can be made of, before anything is
// sized from it.
func (c config) validate() error {
	p := dvswitch.Params{Heights: c.heights, Angles: c.angles}
	if err := p.Validate(); err != nil {
		return err
	}
	switch c.pattern {
	case "uniform", "hotspot", "tornado", "bursty":
	default:
		return fmt.Errorf("unknown pattern %q (want uniform, hotspot, tornado or bursty)", c.pattern)
	}
	for _, f := range []struct {
		name string
		v    float64
	}{{"-load", c.load}, {"-droprate", c.droprate}, {"-corruptrate", c.corruptrate}} {
		if !(f.v >= 0 && f.v <= 1) {
			return fmt.Errorf("%s must be in [0, 1] (%v)", f.name, f.v)
		}
	}
	if c.cycles < 1 {
		return fmt.Errorf("-cycles must be at least 1 (%d)", c.cycles)
	}
	// Dead nodes are placed past the first cylinder.
	if c.faults < 0 || c.faults > 0 && p.Cylinders() < 2 {
		return fmt.Errorf("-faults %d needs a count >= 0 and, when > 0, -heights >= 2", c.faults)
	}
	if c.budgetWall < 0 {
		return fmt.Errorf("-budget-wall must not be negative (%v)", c.budgetWall)
	}
	_, _, err := parseWindow(c.faultwindow)
	return err
}

func main() {
	var cfg config
	flag.IntVar(&cfg.heights, "heights", 8, "cylinder heights H (power of two)")
	flag.IntVar(&cfg.angles, "angles", 4, "angles per ring A")
	flag.StringVar(&cfg.pattern, "pattern", "uniform", "traffic pattern: uniform, hotspot, tornado, bursty")
	flag.Float64Var(&cfg.load, "load", 0.5, "offered load per port (packets/cycle, 0 to 1)")
	flag.IntVar(&cfg.cycles, "cycles", 20000, "injection cycles")
	flag.IntVar(&cfg.faults, "faults", 0, "number of random dead mid-fabric switching nodes")
	flag.Float64Var(&cfg.droprate, "droprate", 0, "per-link-traversal drop probability")
	flag.Float64Var(&cfg.corruptrate, "corruptrate", 0, "per-link-traversal payload-corruption probability")
	flag.StringVar(&cfg.faultwindow, "faultwindow", "", "cycle window start:end for link faults (default: whole run)")
	flag.StringVar(&cfg.metricsPath, "metrics", "",
		"write a Prometheus text dump of the run's instruments to this file ('-' for stdout) and print the stage-attribution summary")
	flag.DurationVar(&cfg.budgetWall, "budget-wall", 0,
		"wall-clock budget; on expiry stop at a cycle boundary and report partial stats (exit 3)")
	flag.Parse()
	if err := cfg.validate(); err != nil {
		fmt.Fprintf(os.Stderr, "dvswitchsim: %v\n", err)
		os.Exit(2)
	}

	p := dvswitch.Params{Heights: cfg.heights, Angles: cfg.angles}
	c := dvswitch.NewCore(p)
	c.Deliver = func(dvswitch.Packet, int64) {}
	var reg *obs.Registry
	var tracer *attr.Tracer
	// Timebase for the attribution stamps: the fleet-wide default cycle
	// period, so stage durations read in the same units as cluster runs.
	const ct = dvswitch.DefaultCycleTime
	if cfg.metricsPath != "" {
		reg = obs.NewRegistry()
		c.SetObs(reg)
		// Standalone attribution: Begin at injection, inject_wait while the
		// packet sits in its port queue, fabric from the cycle it enters the
		// mesh (one pump per hop, delivered the cycle after its last hop, so
		// entry = eject − (hops+1) cycles — the same derivation as
		// dvswitch.Engine's delivery stamp). The host-side stages don't exist
		// here and stay zero.
		tracer = attr.NewTracer(&attr.Config{Sample: 1, Seed: seed}, dvswitch.WireBytes)
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
	rng := sim.NewRNG(seed)
	for k := 0; k < cfg.faults; k++ {
		cl := 1 + rng.Intn(p.Cylinders()-1)
		c.SetFaulty(cl, rng.Intn(p.Heights), rng.Intn(p.Angles), true)
	}
	if cfg.droprate > 0 || cfg.corruptrate > 0 {
		wStart, wEnd, _ := parseWindow(cfg.faultwindow) // validated
		plan := faultplan.Plan{Seed: seed}
		c.SetFaultProbs(dvswitch.FaultProbs{
			Drop: cfg.droprate, Corrupt: cfg.corruptrate,
			StartCycle: wStart, EndCycle: wEnd,
		}, plan.EntityRNG("dvswitch-core", 0))
	}
	ports := p.Ports()
	traffic := dvswitch.Traffic{Pattern: cfg.pattern, Load: cfg.load, Hot: ports / 3, QueueCap: 8}
	var cy int
	stamp := func(pkt dvswitch.Packet) dvswitch.Packet {
		pkt.Flow = tracer.Begin(pkt.Src, pkt.Dst, attr.KindWrite, sim.Time(cy)*ct)
		return pkt
	}
	wall := time.Now()
	budgetHit := false
	ranCycles := 0
	for cy = 0; cy < cfg.cycles; cy++ {
		// Watchdog: poll the wall budget at cycle granularity so an oversized
		// run ends at a clean cycle boundary with a partial report, never a
		// hang or a mid-cycle kill.
		if cfg.budgetWall > 0 && cy&1023 == 0 && time.Since(wall) > cfg.budgetWall {
			budgetHit = true
			break
		}
		ranCycles = cy + 1
		traffic.Offer(c, rng, stamp)
		c.Step()
	}
	if budgetHit {
		cfg.cycles = ranCycles
	}
	drain := c.RunUntilIdle(1 << 24)
	elapsed := time.Since(wall)
	st := c.Stats()
	fmt.Printf("switch %dx%d (%d ports, %d cylinders), pattern=%s load=%.2f\n",
		cfg.heights, cfg.angles, ports, p.Cylinders(), cfg.pattern, cfg.load)
	fmt.Printf("  injected       %d\n", st.Injected)
	fmt.Printf("  delivered      %d (drain took %d extra cycles)\n", st.Delivered, drain)
	fmt.Printf("  throughput     %.3f packets/port/cycle\n",
		float64(st.Delivered)/float64(cfg.cycles)/float64(ports))
	fmt.Printf("  mean latency   %.2f cycles (p50<=%d p99<=%d max %d)\n",
		st.MeanLatency(), st.LatencyPercentile(50), st.LatencyPercentile(99), st.MaxLatency)
	fmt.Printf("  mean deflects  %.2f per packet\n", st.MeanDeflections())
	fmt.Printf("  queued cycles  %d total\n", st.QueuedCycles)
	simCycles := int64(cfg.cycles) + drain
	fmt.Printf("  sim rate       %.2f Mcycles/s wall (%d cycles in %v)\n",
		float64(simCycles)/elapsed.Seconds()/1e6, simCycles, elapsed.Round(time.Millisecond))
	if cfg.faults > 0 || cfg.droprate > 0 {
		fmt.Printf("  dropped        %d (%d dead nodes, %.2g/link drop rate)\n",
			st.Dropped, cfg.faults, cfg.droprate)
	}
	if cfg.corruptrate > 0 {
		fmt.Printf("  corrupted      %d (%.2g/link corrupt rate)\n", st.Corrupted, cfg.corruptrate)
	}
	if reg != nil {
		out := os.Stdout
		if cfg.metricsPath != "-" {
			f, err := os.Create(cfg.metricsPath)
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
		if cfg.metricsPath != "-" {
			fmt.Printf("  metrics        written to %s\n", cfg.metricsPath)
		}
	}
	if tracer != nil {
		sum := tracer.Finalize(sim.Time(cfg.cycles+int(drain)) * ct)
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
