// Command dvcheck runs registered workloads with the invariant layer
// (internal/check) enabled, sweeping seeds and fault classes, and fails
// loudly on any violation. It is the differential-fuzz driver for the
// simulator: every run re-verifies packet conservation, duplication freedom,
// livelock bounds, group-counter and FIFO discipline, PCIe byte
// conservation, and — under fault plans — exactly-once reliable delivery.
//
// Every run is also audited for determinism: it is run twice more under the
// managed pump, capturing the complete simulator state on a grid of a quarter
// of its elapsed virtual time, and the second pass must be in the first's
// state, section by section, at every boundary. A divergence is a FAIL naming
// the component section and the virtual instant.
//
// Usage:
//
//	dvcheck                          # every app, every backend, 8 seeds, clean
//	dvcheck -app gups                # one app
//	dvcheck -nets dv                 # one backend (dv, ib, or dv,ib)
//	dvcheck -seeds 32 -seed0 100     # seed sweep
//	dvcheck -faults drop,corrupt     # fault classes (see -faults help below)
//	dvcheck -cycle                   # cycle-accurate switch (per-cycle sweep)
//	dvcheck -list                    # apps and fault classes
//	dvcheck -v                       # per-run detail
//
// Fault classes: none, drop, corrupt, dead, stall, squeeze, flap, mixed.
// Lossy classes (everything but none) run only on apps that support the
// reliable-delivery layer, with a bounded wait so wedged runs terminate.
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"repro/internal/apprt"
	_ "repro/internal/apps/all"
	"repro/internal/check"
	"repro/internal/cluster"
	"repro/internal/comm"
	"repro/internal/dvswitch"
	"repro/internal/faultplan"
	"repro/internal/sim"
	"repro/internal/snapshot"
)

// faultClass names one reproducible fault plan family; the plan is derived
// from the run seed so every seed exercises a different fault pattern.
type faultClass struct {
	name string
	desc string
	// plan builds the class's plan for one seed; nil means a clean run.
	plan func(seed uint64) *faultplan.Plan
}

var faultClasses = []faultClass{
	{name: "none", desc: "no injected faults", plan: func(uint64) *faultplan.Plan { return nil }},
	{name: "drop", desc: "per-link packet loss", plan: func(s uint64) *faultplan.Plan {
		return &faultplan.Plan{Seed: s, DropProb: 1e-3}
	}},
	{name: "corrupt", desc: "per-link payload corruption (CRC-dropped)", plan: func(s uint64) *faultplan.Plan {
		return &faultplan.Plan{Seed: s, CorruptProb: 5e-4}
	}},
	{name: "dead", desc: "mid-fabric switch-node failure", plan: func(s uint64) *faultplan.Plan {
		return &faultplan.Plan{Seed: s, DeadNodes: []faultplan.DeadNode{
			{Cyl: 1, Height: int(s % 4), Angle: int(s % 3), Kill: 2 * sim.Microsecond},
		}}
	}},
	{name: "stall", desc: "VIC DMA-engine stalls", plan: func(s uint64) *faultplan.Plan {
		return &faultplan.Plan{Seed: s, DMAStalls: []faultplan.DMAStall{
			{VIC: int(s % 4), At: 3 * sim.Microsecond, Stall: 5 * sim.Microsecond},
		}}
	}},
	{name: "squeeze", desc: "tiny surprise-FIFO capacity (overflow loss)", plan: func(s uint64) *faultplan.Plan {
		return &faultplan.Plan{Seed: s, FIFOCapacity: 32}
	}},
	{name: "flap", desc: "InfiniBand uplink outage", plan: func(s uint64) *faultplan.Plan {
		return &faultplan.Plan{Seed: s, IBFlaps: []faultplan.LinkFlap{
			{Leaf: int(s % 2), Spine: int(s % 2), Start: 3 * sim.Microsecond, Down: 5 * sim.Microsecond},
		}}
	}},
	{name: "mixed", desc: "drop + corruption + a dead node", plan: func(s uint64) *faultplan.Plan {
		return &faultplan.Plan{Seed: s, DropProb: 5e-4, CorruptProb: 2.5e-4,
			DeadNodes: []faultplan.DeadNode{
				{Cyl: 1, Height: int(s % 4), Angle: int(s % 3), Kill: 2 * sim.Microsecond},
			}}
	}},
}

func classByName(name string) *faultClass {
	for i := range faultClasses {
		if strings.EqualFold(faultClasses[i].name, name) {
			return &faultClasses[i]
		}
	}
	return nil
}

// usage reports input no run can be built from and exits 2.
func usage(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "dvcheck: "+format+"\n", args...)
	os.Exit(2)
}

// audit runs the spec build returns twice more under the managed pump,
// capturing on a grid of a quarter of elapsed (the checked run's virtual
// time), and reports how many boundaries the passes were compared at; the
// error is a *snapshot.MismatchError when the second pass left the first's
// path.
func audit(a apprt.App, build func() apprt.RunSpec, elapsed sim.Time) (boundaries int, err error) {
	every := max(elapsed/4, sim.Nanosecond)
	return snapshot.Audit(func(sink func(*snapshot.Snapshot) error) error {
		spec := build()
		spec.Checkpoint = &cluster.Checkpoint{Every: every, Sink: sink}
		if _, err := a.Run(spec); err != nil {
			return err
		}
		return spec.Checkpoint.Err
	})
}

func main() {
	appFlag := flag.String("app", "", "run only this registered app (default: all)")
	nodesFlag := flag.Int("nodes", 0, "override the cluster size for every run (0 = each app's reference size)")
	planesFlag := flag.Int("planes", 0, "Data Vortex switch planes behind each VIC boundary (0/1 = single plane)")
	policyFlag := flag.String("plane-policy", "", "plane assignment for -planes > 1: hash (default) or rr")
	netsFlag := flag.String("nets", "dv,ib", "comma-separated backends: dv, ib")
	seeds := flag.Int("seeds", 8, "seeds per (app, net, fault class)")
	seed0 := flag.Uint64("seed0", 1, "first seed of the sweep")
	faultsFlag := flag.String("faults", "none", "comma-separated fault classes (see -list)")
	cycle := flag.Bool("cycle", false, "route DV through the cycle-accurate switch core")
	list := flag.Bool("list", false, "list apps and fault classes, then exit")
	verbose := flag.Bool("v", false, "log every run, not just violations")
	flag.Parse()

	if *list {
		fmt.Println("apps:")
		for _, a := range apprt.Apps() {
			rel := ""
			if a.Reliable {
				rel = "  [reliable]"
			}
			fmt.Printf("  %-10s %s%s\n", a.Name, a.Desc, rel)
		}
		fmt.Println("fault classes:")
		for _, fc := range faultClasses {
			fmt.Printf("  %-8s %s\n", fc.name, fc.desc)
		}
		return
	}

	policy, err := dvswitch.ParsePlanePolicy(*policyFlag)
	if err != nil {
		usage("%v", err)
	}
	plat := cluster.Platform{
		CycleAccurate: *cycle,
		DVPlanes:      *planesFlag,
		PlanePolicy:   policy,
	}
	if err := plat.Validate(); err != nil {
		usage("%v", err)
	}

	apps := apprt.Apps()
	if *appFlag != "" {
		a, ok := apprt.Get(*appFlag)
		if !ok {
			usage("unknown app %q (try -list)", *appFlag)
		}
		apps = []apprt.App{a}
	}
	var nets []comm.Net
	for _, n := range strings.Split(*netsFlag, ",") {
		switch strings.ToLower(strings.TrimSpace(n)) {
		case "dv":
			nets = append(nets, comm.DV)
		case "ib":
			nets = append(nets, comm.IB)
		case "":
		default:
			usage("unknown net %q (want dv or ib)", n)
		}
	}
	var classes []*faultClass
	for _, n := range strings.Split(*faultsFlag, ",") {
		if n = strings.TrimSpace(n); n == "" {
			continue
		}
		fc := classByName(n)
		if fc == nil {
			usage("unknown fault class %q (try -list)", n)
		}
		classes = append(classes, fc)
	}

	// Two-stage signal handling: the first SIGINT/SIGTERM lets the current
	// run finish, then prints the exact matrix position to restart from; the
	// second force-quits.
	stop := make(chan struct{})
	sigc := make(chan os.Signal, 2)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigc
		fmt.Fprintln(os.Stderr,
			"dvcheck: interrupt — finishing current run (signal again to force quit)")
		close(stop)
		<-sigc
		fmt.Fprintln(os.Stderr, "dvcheck: force quit")
		os.Exit(130)
	}()
	stopped := func() bool {
		select {
		case <-stop:
			return true
		default:
			return false
		}
	}
	netSlug := func(n comm.Net) string {
		if n == comm.DV {
			return "dv"
		}
		return "ib"
	}

	runs, failures := 0, 0
	minAudited := math.MaxInt // fewest boundaries any run's audit compared at
	interrupted := false
matrix:
	for _, a := range apps {
		for _, net := range nets {
			for _, fc := range classes {
				lossy := fc.name != "none"
				if lossy && !a.Reliable {
					continue // no reliable layer to protect the run
				}
				for s := 0; s < *seeds; s++ {
					seed := *seed0 + uint64(s)
					if stopped() {
						hint := fmt.Sprintf("dvcheck -app %s -nets %s -faults %s -seed0 %d -seeds %d",
							a.Name, netSlug(net), fc.name, seed, *seeds-s)
						if *cycle {
							hint += " -cycle"
						}
						if *nodesFlag > 0 {
							hint += fmt.Sprintf(" -nodes %d", *nodesFlag)
						}
						if *planesFlag > 1 {
							hint += fmt.Sprintf(" -planes %d", *planesFlag)
							if *policyFlag != "" {
								hint += " -plane-policy " + *policyFlag
							}
						}
						fmt.Fprintf(os.Stderr, "dvcheck: interrupted; resume from here with: %s\n", hint)
						interrupted = true
						break matrix
					}
					// One builder for the checked run and both audit passes:
					// each gets its own fault plan and checker configuration.
					build := func() apprt.RunSpec {
						spec := apprt.RunSpec{Net: net, Nodes: a.RefNodes, Seed: seed, Platform: plat}
						spec.Check = check.All()
						if *nodesFlag != 0 {
							spec.Nodes = *nodesFlag
							// Past-reference sizes exercise the scaled geometries;
							// keep the fat-tree baseline honest there too.
							spec.IBScaled = spec.Nodes > a.RefNodes
						}
						if lossy {
							spec.Reliable = true
							spec.WaitTimeout = 500 * sim.Microsecond
							spec.Faults = fc.plan(seed)
						}
						return spec
					}
					runs++
					tag := fmt.Sprintf("%s/%s/%s seed=%d", a.Name, net, fc.name, seed)
					sum, err := a.Run(build())
					if err != nil {
						// Not a violation: the flags ask for a run that cannot
						// be built (bad knob, size not divisible over the nodes).
						usage("%s: %v", tag, err)
					}
					var res *check.Result
					if sum.Cluster != nil {
						res = sum.Cluster.Checks
					}
					switch {
					case res == nil:
						failures++
						fmt.Printf("FAIL %s: no invariant result attached\n", tag)
					case !res.Ok():
						failures++
						fmt.Printf("FAIL %s:\n%s\n", tag, res)
					default:
						boundaries, err := audit(a, build, sum.Cluster.Elapsed)
						minAudited = min(minAudited, boundaries)
						if err != nil {
							failures++
							fmt.Printf("FAIL %s: determinism audit: %v\n", tag, err)
						} else if *verbose {
							fmt.Printf("ok   %s  (%d cycles, %d packets, %d chunks, %d audited boundaries)  %s\n",
								tag, res.CyclesChecked, res.PacketsTracked, res.ChunksChecked, boundaries, sum.Check)
						}
					}
				}
			}
		}
	}
	if failures > 0 {
		fmt.Printf("dvcheck: %d/%d runs violated invariants\n", failures, runs)
		os.Exit(1)
	}
	fmt.Printf("dvcheck: %d runs", runs)
	if runs > 0 {
		fmt.Printf(", each audited at %d or more boundaries", minAudited)
	}
	fmt.Println(", all invariants held")
	if interrupted {
		os.Exit(130)
	}
}
