// Command dvcheck runs registered workloads with the invariant layer
// (internal/check) enabled, sweeping seeds and fault classes, and fails
// loudly on any violation. It is the differential-fuzz driver for the
// simulator: every run re-verifies packet conservation, duplication freedom,
// livelock bounds, group-counter and FIFO discipline, PCIe byte
// conservation, and — under fault plans — exactly-once reliable delivery.
//
// Every run is also audited for determinism (cluster.Audit): it is run twice
// more under the managed pump, on a boundary grid of a quarter of its elapsed
// virtual time, and the second pass must take the first's path — the same
// events fired, the same queue, processes and RNG streams at every boundary —
// and both passes must end with the checked run's Summary. A divergence is a
// FAIL naming the part of the witness, the virtual instant and, when events
// part, the first event fired differently: its time, sequence number and
// handler.
//
// Usage:
//
//	dvcheck                          # every app, every backend, 8 seeds, clean
//	dvcheck -app gups                # one app
//	dvcheck -net dv                  # one backend (dv, ib, or dv,ib)
//	dvcheck -seeds 32 -seed 100      # seed sweep from seed 100
//	dvcheck -faults drop,corrupt     # fault classes (see -faults help below)
//	dvcheck -cycle                   # cycle-accurate switch (per-cycle sweep)
//	dvcheck -list                    # apps and fault classes
//	dvcheck -v                       # per-run detail
//
// Fault classes: none, drop, corrupt, dead, stall, squeeze, flap, mixed.
// Lossy classes (everything but none) run only on apps that support the
// reliable-delivery layer, with a bounded wait so wedged runs terminate. A
// sweep that selects no run at all exits 2.
//
// -app, -nodes, -net, -seed, -cycle and -planes are the run-spec flags
// dvbench and dvprof take too (apprt.BindRunFlags); an empty -app or -net
// sweeps every app or backend, and -seed is the first seed.
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"reflect"
	"slices"
	"strings"
	"syscall"

	"repro/internal/apprt"
	_ "repro/internal/apps/all"
	"repro/internal/check"
	"repro/internal/cluster"
	"repro/internal/faultplan"
	"repro/internal/sim"
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

// runsOn reports whether the class runs on a: a lossy class needs the
// reliable layer to protect the run.
func (fc *faultClass) runsOn(a apprt.App) bool { return fc.name == "none" || a.Reliable }

// usage reports input no run can be built from and exits 2.
func usage(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "dvcheck: "+format+"\n", args...)
	os.Exit(2)
}

// audit runs the spec build returns twice more under the managed pump, with
// boundaries on a grid of a quarter of the checked run's virtual time, and
// reports how many boundaries the passes were compared at. The error is a
// *cluster.MismatchError when the second pass left the first's path, or when
// a pass ended with a Summary other than the checked run's.
func audit(a apprt.App, build func() apprt.RunSpec, checked apprt.Summary) (boundaries int, err error) {
	every := max(checked.Cluster.Elapsed/4, sim.Nanosecond)
	var first *apprt.Summary
	ats, err := cluster.Audit(every, func(cp *cluster.Checkpoint) (any, error) {
		spec := build()
		spec.Checkpoint = cp
		sum, err := a.Run(spec)
		if first == nil {
			first = &sum
		}
		return sum, err
	})
	// Audit holds the second pass's Summary to the first's.
	if err == nil && !reflect.DeepEqual(*first, checked) {
		err = &cluster.MismatchError{Part: "results", At: checked.Cluster.Elapsed,
			Want: "the checked run's Summary", Got: "another"}
	}
	return len(ats), err
}

func main() {
	run := apprt.BindRunFlags(flag.CommandLine)
	seeds := flag.Int("seeds", 8, "seeds per (app, net, fault class), from -seed on")
	faultsFlag := flag.String("faults", "none", "comma-separated fault classes (see -list)")
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

	apps, err := run.Apps()
	if err != nil {
		usage("%v", err)
	}
	nets, err := run.Nets()
	if err != nil {
		usage("%v", err)
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
	// A sweep that selects nothing would report "0 runs, all invariants
	// held": say why it is empty instead.
	switch {
	case *seeds < 1:
		usage("-seeds %d selects no runs; want at least 1", *seeds)
	case len(classes) == 0:
		usage("-faults %q selects no fault class (try -list)", *faultsFlag)
	case !slices.ContainsFunc(classes, func(fc *faultClass) bool {
		return slices.ContainsFunc(apps, func(a apprt.App) bool { return fc.runsOn(a) })
	}):
		usage("the sweep selects no runs: lossy fault classes run only on apps with a reliable layer (try -list)")
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

	runs, failures := 0, 0
	minAudited := math.MaxInt // fewest boundaries any run's audit compared at
	interrupted := false
matrix:
	for _, a := range apps {
		for _, net := range nets {
			base, err := run.Spec(net, a.RefNodes)
			if err != nil {
				usage("%v", err)
			}
			for _, fc := range classes {
				if !fc.runsOn(a) {
					continue
				}
				for s := 0; s < *seeds; s++ {
					seed := run.Seed + uint64(s)
					if stopped() {
						hint := fmt.Sprintf("dvcheck -app %s -net %q -faults %s -seed %d -seeds %d",
							a.Name, net, fc.name, seed, *seeds-s)
						if run.Cycle {
							hint += " -cycle"
						}
						if run.Nodes > 0 {
							hint += fmt.Sprintf(" -nodes %d", run.Nodes)
						}
						if run.Planes > 1 {
							hint += fmt.Sprintf(" -planes %d", run.Planes)
						}
						fmt.Fprintf(os.Stderr, "dvcheck: interrupted; resume from here with: %s\n", hint)
						interrupted = true
						break matrix
					}
					// One builder for the checked run and both audit passes:
					// each gets its own fault plan and checker configuration.
					build := func() apprt.RunSpec {
						spec := base
						spec.Seed = seed
						spec.Check = check.All()
						// Past-reference sizes exercise the scaled geometries;
						// keep the fat-tree baseline honest there too.
						spec.IBScaled = spec.Nodes > a.RefNodes
						if fc.name != "none" {
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
						boundaries, err := audit(a, build, sum)
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
