package main

import "strings"

// The layers a CPU sample can land in, in the order they are reported.
// Their shares of a workload's samples sum to 1.
var layerNames = []string{
	"sim.queue", "sim.handoff", "dvswitch", "vic", "dv", "ib", "mpi",
	"cluster", "apps", "obs", "runtime.gc", "runtime.sched",
}

// pkgLayer maps a package of this module (path below repro/internal/) to
// its layer; the longest matching prefix wins, so obs/attr needs no entry
// beside obs, and apps/ covers all eleven applications. sim is split by
// function in simLayer.
var pkgLayer = []struct{ prefix, layer string }{
	{"dvswitch", "dvswitch"},
	{"vic", "vic"},
	{"dv", "dv"}, {"comm", "dv"}, {"shmem", "dv"},
	{"ib", "ib"},
	{"mpi", "mpi"},
	{"cluster", "cluster"}, {"apprt", "cluster"}, {"faultplan", "cluster"}, {"snapshot", "cluster"},
	{"apps/", "apps"}, {"fftkernel", "apps"}, {"bench", "apps"}, {"core", "apps"}, {"plot", "apps"},
	{"obs", "obs"}, {"check", "obs"}, {"trace", "obs"},
}

// handoffFuncs are the sim functions that park, resume, start or end a
// simulated process; every other sim function is event-queue work.
var handoffFuncs = []string{
	"(*Proc).", "(*Kernel).Spawn", "(*Kernel).resumeProc", "(*Kernel).drain", "fireResume",
	"(*Gate).Wait", "(*Gate).WaitTimeout", "fireGateWake", "fireGateTimeout",
	"(*Queue[", "(*Pipe).Occupy",
}

// gcFuncs mark a stack with no frame of this module as garbage collection;
// what is left of the runtime is the scheduler servicing goroutine switches.
var gcFuncs = []string{
	"runtime.gcBgMarkWorker", "runtime.gcDrain", "runtime.gcAssistAlloc", "runtime.gcMark",
	"runtime.gcStart", "runtime.gcSweep", "runtime.bgsweep", "runtime.bgscavenge",
	"runtime.scanobject", "runtime.markroot", "runtime.sweepone", "runtime.(*gcWork)",
	"runtime.(*mspan).sweep", "runtime.(*sweepLocked)", "runtime.gcMarkTermination",
	"runtime.wbBufFlush", "runtime.(*gcControllerState)",
}

// shareMetric names the per-layer metric of a layer's share of the samples:
// sim.queue_share for a split layer, dvswitch.share for a whole one.
func shareMetric(layer string) string {
	if strings.Contains(layer, ".") {
		return layer + "_share"
	}
	return layer + ".share"
}

const modPrefix = "repro/internal/"

// frameLayer returns the layer of one function name, or "" when the frame
// does not decide (not this module's code, or sim's RNG, which counts for
// its caller).
func frameLayer(fn string) string {
	if strings.HasPrefix(fn, "main.") || strings.HasPrefix(fn, "repro/benchmark.") {
		return "apps" // the benchmark's own kernels (its name under go build, and under go test)
	}
	rest, ok := strings.CutPrefix(fn, modPrefix)
	if !ok {
		return ""
	}
	if f, ok := strings.CutPrefix(rest, "sim."); ok {
		return simLayer(f)
	}
	best, layer := 0, ""
	for _, pl := range pkgLayer {
		if len(pl.prefix) > best && inPackage(rest, pl.prefix) {
			best, layer = len(pl.prefix), pl.layer
		}
	}
	return layer
}

// inPackage reports whether fn (path below repro/internal/) is a function
// of package pkg or, for a prefix ending in "/", of a package beneath it.
func inPackage(fn, pkg string) bool {
	rest, ok := strings.CutPrefix(fn, pkg)
	if !ok {
		return false
	}
	return strings.HasSuffix(pkg, "/") || strings.HasPrefix(rest, ".") || strings.HasPrefix(rest, "/")
}

func simLayer(fn string) string {
	if strings.HasPrefix(fn, "(*RNG).") || strings.HasPrefix(fn, "NewRNG") {
		return ""
	}
	for _, h := range handoffFuncs {
		if strings.HasPrefix(fn, h) {
			return "sim.handoff"
		}
	}
	return "sim.queue"
}

// classify returns the layer of a sample: that of its innermost frame that
// belongs to this module, runtime callees beneath it included. A stack with
// no such frame is the Go runtime's own: collector or scheduler.
func classify(stack []string) string {
	for _, fn := range stack {
		if l := frameLayer(fn); l != "" {
			return l
		}
	}
	for _, fn := range stack {
		for _, g := range gcFuncs {
			if strings.HasPrefix(fn, g) {
				return "runtime.gc"
			}
		}
	}
	return "runtime.sched"
}

// layerShares buckets samples by layer and returns each layer's share.
func layerShares(samples []stackSample) map[string]float64 {
	counts := map[string]int64{}
	var total int64
	for _, s := range samples {
		counts[classify(s.stack)] += s.count
		total += s.count
	}
	shares := make(map[string]float64, len(layerNames))
	for _, l := range layerNames {
		if total > 0 {
			shares[l] = float64(counts[l]) / float64(total)
		}
	}
	return shares
}
