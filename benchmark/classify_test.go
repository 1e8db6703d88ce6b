package main

import (
	"math"
	"testing"
)

// The frame names below are as runtime/pprof reports them for this module.
func TestFrameLayer(t *testing.T) {
	for _, c := range []struct{ fn, want string }{
		// sim: event heap, calendar and dispatch are queue work ...
		{"repro/internal/sim.(*Kernel).schedule", "sim.queue"},
		{"repro/internal/sim.(*Kernel).popMin", "sim.queue"},
		{"repro/internal/sim.(*Kernel).AtArgLane", "sim.queue"},
		{"repro/internal/sim.(*Kernel).Run", "sim.queue"},
		{"repro/internal/sim.(*Kernel).fire", "sim.queue"},
		{"repro/internal/sim.(*calQ).push", "sim.queue"},
		{"repro/internal/sim.(*calQ).advance", "sim.queue"},
		{"repro/internal/sim.(*laneHeap).siftDown", "sim.queue"},
		{"repro/internal/sim.(*eventHeap).pop", "sim.queue"},
		{"repro/internal/sim.(*Pipe).Reserve", "sim.queue"},
		{"repro/internal/sim.(*Gate).Broadcast", "sim.queue"},
		// ... and parking, resuming, starting and ending a process are handoff.
		{"repro/internal/sim.(*Proc).park", "sim.handoff"},
		{"repro/internal/sim.(*Proc).Wait", "sim.handoff"},
		{"repro/internal/sim.(*Proc).Yield", "sim.handoff"},
		{"repro/internal/sim.(*Proc).transfer", "sim.handoff"},
		{"repro/internal/sim.(*Kernel).resumeProc", "sim.handoff"},
		{"repro/internal/sim.fireResume", "sim.handoff"},
		{"repro/internal/sim.(*Kernel).Spawn", "sim.handoff"},
		{"repro/internal/sim.(*Kernel).Spawn.func1", "sim.handoff"},
		{"repro/internal/sim.(*Kernel).Spawn.func1.1", "sim.handoff"},
		{"repro/internal/sim.(*Kernel).drain", "sim.handoff"},
		{"repro/internal/sim.(*Gate).Wait", "sim.handoff"},
		{"repro/internal/sim.fireGateWake", "sim.handoff"},
		{"repro/internal/sim.(*Queue[go.shape.*uint8]).Pop", "sim.handoff"},
		{"repro/internal/sim.(*Pipe).Occupy", "sim.handoff"},
		// The RNG counts for whoever called it.
		{"repro/internal/sim.(*RNG).Uint64", ""},
		{"repro/internal/sim.NewRNG", ""},

		{"repro/internal/dvswitch.(*Core).Step", "dvswitch"},
		{"repro/internal/dvswitch.(*FastModel).Inject", "dvswitch"},
		{"repro/internal/dvswitch.fireDelivery", "dvswitch"},
		{"repro/internal/dvswitch.(*MultiPlane).InjectBatch", "dvswitch"},
		{"repro/internal/vic.(*VIC).HostSend", "vic"},
		{"repro/internal/vic.(*VIC).Receive", "vic"},
		{"repro/internal/dv.(*Endpoint).Scatter", "dv"},
		{"repro/internal/comm.(*dvBackend).Alltoall", "dv"},
		{"repro/internal/shmem.(*Ctx).Put", "dv"},
		{"repro/internal/ib.(*Fabric).Transfer", "ib"},
		{"repro/internal/mpi.(*Comm).Alltoall", "mpi"},
		{"repro/internal/cluster.Run", "cluster"},
		{"repro/internal/cluster.Run.func3", "cluster"},
		{"repro/internal/apprt.Execute", "cluster"},
		{"repro/internal/faultplan.(*Plan).Validate", "cluster"},
		{"repro/internal/snapshot.(*Encoder).U64", "cluster"},
		{"repro/internal/apps/bfs.buildLocal", "apps"},
		{"repro/internal/apps/gups.runDV", "apps"},
		{"repro/internal/fftkernel.transform", "apps"},
		{"repro/internal/bench.Fig4", "apps"},
		{"main.a2aRun.func1", "apps"},
		{"repro/benchmark.a2aRun.func1", "apps"},
		{"repro/internal/obs.(*Counter).Add", "obs"},
		{"repro/internal/obs/attr.(*Tracer).Stamp", "obs"},
		{"repro/internal/check.(*Checker).Finalize", "obs"},
		{"repro/internal/trace.(*Recorder).State", "obs"},

		// Not this module's code: the frame does not decide.
		{"runtime.mallocgc", ""},
		{"runtime.chansend1", ""},
		{"math/cmplx.Exp", ""},
		{"repro/internal/dvx.Something", ""}, // dv must not swallow a longer package name
		{"mainframe.run", ""},
	} {
		if got := frameLayer(c.fn); got != c.want {
			t.Errorf("frameLayer(%q) = %q, want %q", c.fn, got, c.want)
		}
	}
}

func TestClassifyStack(t *testing.T) {
	for _, c := range []struct {
		name  string
		stack []string
		want  string
	}{
		{"runtime callees count for the layer above them",
			[]string{"runtime.memmove", "runtime.growslice", "repro/internal/vic.(*VIC).HostSend", "repro/internal/apps/gups.runDV"}, "vic"},
		{"an allocation's assist counts for the layer that allocated",
			[]string{"runtime.gcAssistAlloc", "runtime.mallocgc", "repro/internal/mpi.(*Comm).isend"}, "mpi"},
		{"the channel send of a park is handoff",
			[]string{"runtime.chansend", "runtime.chansend1", "repro/internal/sim.(*Proc).park", "repro/internal/sim.(*Proc).Wait", "repro/internal/dv.(*Endpoint).WaitGC"}, "sim.handoff"},
		{"the RNG counts for its caller",
			[]string{"repro/internal/sim.(*RNG).Uint64", "repro/internal/sim.(*RNG).Float64", "repro/internal/apps/bfs.GenerateEdge", "repro/internal/apps/bfs.buildLocal"}, "apps"},
		{"the innermost module frame wins over outer ones",
			[]string{"repro/internal/sim.(*calQ).push", "repro/internal/sim.(*Kernel).schedule", "repro/internal/dvswitch.(*FastModel).Inject", "repro/internal/vic.(*VIC).fireInjectBatch"}, "sim.queue"},
		{"a goroutine switch on the scheduler's stack",
			[]string{"runtime.futex", "runtime.futexsleep", "runtime.notesleep", "runtime.stopm", "runtime.findRunnable", "runtime.schedule", "runtime.park_m", "runtime.mcall"}, "runtime.sched"},
		{"goroutine exit",
			[]string{"runtime.gdestroy", "runtime.goexit0", "runtime.mcall"}, "runtime.sched"},
		{"a background mark worker",
			[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcDrainMarkWorkerDedicated", "runtime.gcBgMarkWorker.func2", "runtime.systemstack"}, "runtime.gc"},
		{"the background sweeper",
			[]string{"runtime.(*mspan).sweep", "runtime.sweepone", "runtime.bgsweep", "runtime.gcenable.gowrap1"}, "runtime.gc"},
		{"an empty stack", nil, "runtime.sched"},
	} {
		if got := classify(c.stack); got != c.want {
			t.Errorf("%s: classify = %q, want %q", c.name, got, c.want)
		}
	}
}

func TestLayerSharesSumToOne(t *testing.T) {
	samples := []stackSample{
		{5, []string{"repro/internal/sim.(*Proc).park"}},
		{3, []string{"runtime.mcall"}},
		{2, []string{"runtime.gcBgMarkWorker"}},
		{10, []string{"repro/internal/dvswitch.(*Core).Step"}},
	}
	shares := layerShares(samples)
	if len(shares) != len(layerNames) {
		t.Fatalf("%d shares for %d layers", len(shares), len(layerNames))
	}
	sum := 0.0
	for _, l := range layerNames {
		sum += shares[l]
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Errorf("shares sum to %v", sum)
	}
	if shares["dvswitch"] != 0.5 || shares["sim.handoff"] != 0.25 || shares["runtime.sched"] != 0.15 || shares["runtime.gc"] != 0.1 {
		t.Errorf("shares = %v", shares)
	}
}
