package cluster

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/dvswitch"
	"repro/internal/obs"
	"repro/internal/obs/attr"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/vic"
)

func TestRunBothStacks(t *testing.T) {
	cfg := DefaultConfig(4)
	visited := make([]bool, 4)
	rep := Run(cfg, func(n *Node) {
		visited[n.ID] = true
		if n.DV == nil || n.MPI == nil {
			t.Errorf("node %d missing a stack", n.ID)
			return
		}
		// Exercise both fabrics.
		n.MPI.Barrier()
		n.DV.Barrier()
		if n.ID == 0 {
			n.DV.Put(vic.DMACached, 1, 10, vic.NoGC, []uint64{42})
			n.MPI.Send(1, 1, []byte{9})
		}
		if n.ID == 1 {
			d, _ := n.MPI.Recv(0, 1)
			if d[0] != 9 {
				t.Error("MPI payload wrong")
			}
		}
		n.MPI.Barrier()
		n.DV.Barrier()
		if n.ID == 1 {
			if got := n.DV.Read(10, 1); got[0] != 42 {
				t.Errorf("DV payload = %d", got[0])
			}
		}
	})
	for i, v := range visited {
		if !v {
			t.Fatalf("node %d never ran", i)
		}
	}
	if rep.Elapsed <= 0 {
		t.Fatal("no elapsed time")
	}
	if rep.DVFabric.Delivered == 0 {
		t.Fatal("no DV packets counted")
	}
	if rep.IBFabric.Messages == 0 {
		t.Fatal("no IB messages counted")
	}
}

func TestSingleStackConfigs(t *testing.T) {
	cfg := DefaultConfig(2)
	cfg.Stacks = StackDV
	Run(cfg, func(n *Node) {
		if n.MPI != nil {
			t.Error("MPI should be nil for StackDV")
		}
		n.DV.Barrier()
	})
	cfg.Stacks = StackIB
	Run(cfg, func(n *Node) {
		if n.DV != nil {
			t.Error("DV should be nil for StackIB")
		}
		n.MPI.Barrier()
	})
}

func TestComputeModel(t *testing.T) {
	cfg := DefaultConfig(1)
	cfg.Stacks = StackIB
	rep := Run(cfg, func(n *Node) {
		n.Flops(8e9) // exactly one second at 8 GFLOPS
	})
	if rep.Elapsed != sim.Second {
		t.Fatalf("8 GFLOP at 8 GFLOPS = %v, want 1s", rep.Elapsed)
	}
	rep = Run(cfg, func(n *Node) {
		n.Work(1000, 1000)
	})
	want := 1000*DefaultCPU().RandomAccess + 1000*DefaultCPU().SmallOp
	if rep.Elapsed != want {
		t.Fatalf("op costs = %v, want %v", rep.Elapsed, want)
	}
}

// TestWorkMatchesComputePair: Work(ops, mem) is Compute(ops·SmallOp) then
// Compute(mem·RandomAccess) with one process switch instead of two. Traced
// and instrumented, both forms must end at the same time with the same state
// records in the same order and the same compute histogram; only the resumes
// differ, by one per Work whose two spans are both nonzero.
func TestWorkMatchesComputePair(t *testing.T) {
	tests := []struct {
		name  string
		pairs [][2]int64 // (ops, mem) per call, node 1 runs them reversed
	}{
		{"both nonzero", [][2]int64{{3, 5}, {1, 1}, {1000, 1}, {200000, 70000}}},
		{"ops zero", [][2]int64{{0, 5}, {0, 100000}}},
		{"mem zero", [][2]int64{{7, 0}, {300000, 0}}},
		{"both zero", [][2]int64{{0, 0}}},
		{"mixed", [][2]int64{{0, 0}, {2, 3}, {0, 9}, {4, 0}, {250000, 250000}, {1, 1}}},
	}
	run := func(pairs [][2]int64, work bool) (*Report, *trace.Log, uint64) {
		cfg := DefaultConfig(2)
		cfg.Attr = &attr.Config{Trace: true}
		cfg.Obs = &obs.Config{Every: 10 * sim.Microsecond}
		_, r0, _, _ := KernelCounts()
		rep := Run(cfg, func(n *Node) {
			for i := range pairs {
				pr := pairs[i]
				if n.ID == 1 {
					pr = pairs[len(pairs)-1-i]
				}
				if work {
					n.Work(pr[0], pr[1])
				} else {
					n.Compute(sim.Time(pr[0]) * n.CPU.SmallOp)
					n.Compute(sim.Time(pr[1]) * n.CPU.RandomAccess)
				}
			}
		})
		_, r1, _, _ := KernelCounts()
		log, err := rep.Attr.Trace()
		if err != nil {
			t.Fatal(err)
		}
		return rep, log, r1 - r0
	}
	prom := func(rep *Report) string {
		var b strings.Builder
		if err := rep.Metrics.Registry.WritePrometheus(&b); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			want, wantTr, wantRes := run(tt.pairs, false)
			got, gotTr, gotRes := run(tt.pairs, true)
			if got.Elapsed != want.Elapsed || !slices.Equal(got.NodeTimes, want.NodeTimes) {
				t.Errorf("Work ends at %v %v, the Compute pair at %v %v", got.Elapsed, got.NodeTimes, want.Elapsed, want.NodeTimes)
			}
			if !slices.Equal(gotTr.States, wantTr.States) {
				t.Errorf("trace states differ:\n  Work: %v\n  pair: %v", gotTr.States, wantTr.States)
			}
			if g, w := prom(got), prom(want); g != w {
				t.Errorf("registries differ:\n  Work: %s\n  pair: %s", g, w)
			}
			saved := uint64(0)
			for _, pr := range tt.pairs {
				if pr[0] > 0 && pr[1] > 0 {
					saved += 2 // one per node
				}
			}
			if gotRes != wantRes-saved {
				t.Errorf("Work made %d resumes, want the pair's %d less %d", gotRes, wantRes, saved)
			}
		})
	}
}

// TestWorkEachMatchesWorkLoop: WorkEach(next) is the loop
// `for { ops, mem, ok := next(); if !ok { break }; Work(ops, mem) }` with one
// process switch per call instead of one per item. Traced and instrumented,
// both forms must call next as often, end at the same time with the same
// state records, the same registry and the same events; WorkEach resumes once
// per call that waits at all, so an empty stream parks nothing. A next that
// blocks panics naming Chain, whether it runs on the process (the first item)
// or as a kernel event (a later one).
func TestWorkEachMatchesWorkLoop(t *testing.T) {
	tests := []struct {
		name  string
		pairs [][2]int64 // the stream's (ops, mem) items, node 1 runs them reversed
	}{
		{"both nonzero", [][2]int64{{3, 5}, {1, 1}, {1000, 1}, {200000, 70000}}},
		{"ops zero", [][2]int64{{0, 5}, {0, 100000}}},
		{"mem zero", [][2]int64{{7, 0}, {300000, 0}}},
		{"both zero", [][2]int64{{0, 0}}},
		{"mixed", [][2]int64{{0, 0}, {2, 3}, {0, 9}, {4, 0}, {250000, 250000}, {1, 1}}},
		{"empty stream", nil},
	}
	type result struct {
		rep                     *Report
		log                     *trace.Log
		events, resumes, stream uint64
		calls                   int
	}
	run := func(pairs [][2]int64, each bool) result {
		cfg := DefaultConfig(2)
		cfg.Attr = &attr.Config{Trace: true}
		cfg.Obs = &obs.Config{Every: 10 * sim.Microsecond}
		var r result
		e0, r0, _, s0 := KernelCounts()
		r.rep = Run(cfg, func(n *Node) {
			i := 0
			next := func() (int64, int64, bool) {
				r.calls++
				if i == len(pairs) {
					return 0, 0, false
				}
				pr := pairs[i]
				if n.ID == 1 {
					pr = pairs[len(pairs)-1-i]
				}
				i++
				return pr[0], pr[1], true
			}
			if each {
				n.WorkEach(next)
				return
			}
			for {
				ops, mem, ok := next()
				if !ok {
					break
				}
				n.Work(ops, mem)
			}
		})
		e1, r1, _, s1 := KernelCounts()
		r.events, r.resumes, r.stream = e1-e0, r1-r0, s1-s0
		var err error
		if r.log, err = r.rep.Attr.Trace(); err != nil {
			t.Fatal(err)
		}
		return r
	}
	prom := func(rep *Report) string {
		var b strings.Builder
		if err := rep.Metrics.Registry.WritePrometheus(&b); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			want, got := run(tt.pairs, false), run(tt.pairs, true)
			if got.rep.Elapsed != want.rep.Elapsed || !slices.Equal(got.rep.NodeTimes, want.rep.NodeTimes) {
				t.Errorf("WorkEach ends at %v %v, the Work loop at %v %v", got.rep.Elapsed, got.rep.NodeTimes, want.rep.Elapsed, want.rep.NodeTimes)
			}
			if got.calls != want.calls || got.calls != 2*(len(tt.pairs)+1) {
				t.Errorf("next called %d times, the Work loop %d, want %d", got.calls, want.calls, 2*(len(tt.pairs)+1))
			}
			if !slices.Equal(got.log.States, want.log.States) {
				t.Errorf("trace states differ:\n  WorkEach: %v\n  loop:     %v", got.log.States, want.log.States)
			}
			if g, w := prom(got.rep), prom(want.rep); g != w {
				t.Errorf("registries differ:\n  WorkEach: %s\n  loop:     %s", g, w)
			}
			// A chained step fires under the key, and resumes the process,
			// of the wait it stands for: the event stream cannot tell them apart.
			if got.events != want.events || got.stream != want.stream {
				t.Errorf("WorkEach fired %d events (stream %#x), the Work loop %d (%#x)", got.events, got.stream, want.events, want.stream)
			}
			// The loop resumes once per item that waits, WorkEach once per
			// stream that waits; each node runs one stream.
			waits, streams := uint64(0), uint64(0)
			for _, pr := range tt.pairs {
				if pr[0] > 0 || pr[1] > 0 {
					waits, streams = waits+2, 2
				}
			}
			if got.resumes != want.resumes-waits+streams {
				t.Errorf("WorkEach made %d resumes, want the loop's %d less %d plus %d", got.resumes, want.resumes, waits, streams)
			}
		})
	}
	for _, first := range []bool{true, false} {
		where := map[bool]string{true: "blocking next/first item", false: "blocking next/later item"}[first]
		t.Run(where, func(t *testing.T) {
			cfg := DefaultConfig(1)
			cfg.Stacks = StackIB
			got := func() (r any) {
				defer func() { r = recover() }()
				Run(cfg, func(n *Node) {
					calls := 0
					n.WorkEach(func() (int64, int64, bool) {
						calls++
						if first || calls == 2 {
							n.Compute(1)
						}
						return 1, 1, calls < 3
					})
				})
				return nil
			}()
			if !strings.Contains(fmt.Sprint(got), "Chain") {
				t.Fatalf("recovered %v, want a panic naming Chain", got)
			}
		})
	}
}

func TestCycleAccurateStack(t *testing.T) {
	cfg := DefaultConfig(4)
	cfg.Stacks = StackDV
	cfg.CycleAccurate = true
	rep := Run(cfg, func(n *Node) {
		n.DV.Barrier()
		if n.ID == 2 {
			n.DV.Put(vic.PIO, 3, 0, vic.NoGC, []uint64{7})
		}
		n.DV.Barrier()
		n.DV.Barrier() // packets surely delivered by now
		if n.ID == 3 {
			if got := n.DV.Read(0, 1); got[0] != 7 {
				t.Errorf("cycle-accurate delivery failed: %d", got[0])
			}
		}
	})
	if rep.DVFabric.Delivered == 0 {
		t.Fatal("no packets through cycle-accurate switch")
	}
}

func TestDeterministicRuns(t *testing.T) {
	run := func() sim.Time {
		cfg := DefaultConfig(8)
		return Run(cfg, func(n *Node) {
			for i := 0; i < 5; i++ {
				n.Compute(sim.Time(n.RNG.Intn(1000)) * sim.Nanosecond)
				n.MPI.Barrier()
				n.DV.Barrier()
			}
		}).Elapsed
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("non-deterministic: %v vs %v", a, b)
	}
}

// TestTraceRecordsStatesAndMessages: a traced run's trace holds its compute
// spans, each MPI message with its size, and each Data Vortex packet at its
// fabric delivery with its wire size.
func TestTraceRecordsStatesAndMessages(t *testing.T) {
	cfg := DefaultConfig(2)
	cfg.Attr = &attr.Config{Trace: true}
	rep := Run(cfg, func(n *Node) {
		n.Compute(sim.Microsecond)
		if n.ID == 0 {
			n.MPI.Send(1, 1, make([]byte, 64))
			n.DV.Put(vic.PIO, 1, 0, vic.NoGC, []uint64{7})
		} else {
			n.MPI.Recv(0, 1)
		}
		n.DV.Barrier()
		n.Compute(sim.Microsecond)
	})
	log, err := rep.Attr.Trace()
	if err != nil {
		t.Fatal(err)
	}
	states, msgs, span := log.Summary()
	if states < 4 {
		t.Fatalf("states = %d", states)
	}
	if span <= 0 {
		t.Fatal("empty trace span")
	}
	var mpiMsgs, dvMsgs int
	for _, m := range log.Messages {
		switch {
		case m.Bytes == 64 && m.T1 > m.T0:
			mpiMsgs++
		case m.Bytes == dvswitch.WireBytes && m.T0 == m.T1 && m.T1 <= rep.Elapsed:
			dvMsgs++
		default:
			t.Errorf("message %+v is neither the 64-byte MPI send nor a Data Vortex delivery", m)
		}
	}
	if mpiMsgs != 1 || dvMsgs < 2 || mpiMsgs+dvMsgs != msgs {
		t.Fatalf("%d MPI and %d Data Vortex messages of %d, want 1 and at least 2", mpiMsgs, dvMsgs, msgs)
	}
}

func TestReportNodeTimes(t *testing.T) {
	cfg := DefaultConfig(3)
	cfg.Stacks = StackIB
	rep := Run(cfg, func(n *Node) {
		n.Compute(sim.Time(n.ID+1) * sim.Microsecond)
	})
	if rep.Elapsed != 3*sim.Microsecond {
		t.Fatalf("Elapsed = %v", rep.Elapsed)
	}
	for i, tt := range rep.NodeTimes {
		if tt != sim.Time(i+1)*sim.Microsecond {
			t.Fatalf("NodeTimes = %v", rep.NodeTimes)
		}
	}
}

func TestMultiRailIndependentPlanes(t *testing.T) {
	cfg := DefaultConfig(4)
	cfg.Stacks = StackDV
	cfg.VICsPerNode = 2
	Run(cfg, func(n *Node) {
		if len(n.Rails) != 2 || n.DV != n.Rails[0] {
			t.Error("rails not wired")
			return
		}
		// Each rail delivers to the matching rail of the destination node.
		for r, e := range n.Rails {
			slot := e.Alloc(1)
			gc := e.AllocGC()
			e.ArmGC(gc, 1)
			e.Barrier()
			peer := (n.ID + 1) % 4
			e.Put(vic.DMACached, peer, slot, gc, []uint64{uint64(100*r + n.ID)})
			e.WaitGC(gc, sim.Forever)
			got := e.Read(slot, 1)
			want := uint64(100*r + (n.ID+3)%4)
			if got[0] != want {
				t.Errorf("node %d rail %d: got %d, want %d", n.ID, r, got[0], want)
			}
		}
	})
}
