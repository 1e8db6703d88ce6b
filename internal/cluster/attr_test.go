package cluster

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/check"
	"repro/internal/obs/attr"
	"repro/internal/sim"
	"repro/internal/vic"
)

// attrWorkload exercises every flow kind across both stacks: counted writes,
// surprise-FIFO pushes, group-counter control packets, queries, the barrier,
// and MPI traffic.
func attrWorkload(n *Node) {
	if n.DV != nil {
		gc := n.DV.AllocGC()
		buf := n.DV.Alloc(8)
		n.DV.ArmGC(gc, 8)
		n.DV.Barrier()
		dst := (n.ID + 1) % n.DV.Size()
		n.DV.Put(vic.PIO, dst, buf, gc, []uint64{1, 2, 3, 4})
		n.DV.Put(vic.DMACached, dst, buf+4, gc, []uint64{5, 6, 7, 8})
		n.DV.FIFOPut(vic.PIO, dst, []uint64{100, 101})
		n.DV.WaitGC(gc, sim.Second)
		n.DV.Barrier()
		ans := n.DV.Alloc(1)
		qgc := n.DV.AllocGC()
		n.DV.ArmGC(qgc, 1)
		n.DV.Barrier()
		n.DV.Scatter(vic.PIO, []vic.Word{{Dst: dst, Op: vic.OpQuery, GC: vic.NoGC, Addr: buf,
			Val: vic.EncodeHeader(n.ID, vic.OpWrite, qgc, ans)}})
		n.DV.WaitGC(qgc, sim.Second)
		for {
			if _, ok := n.DV.TryPopFIFO(); !ok {
				break
			}
		}
		n.DV.Barrier()
	}
	if n.MPI != nil {
		n.MPI.Barrier()
		if n.ID == 0 {
			n.MPI.Send(1, 7, []byte{1, 2, 3})
		}
		if n.ID == 1 {
			n.MPI.Recv(0, 7)
		}
		n.MPI.Barrier()
	}
}

// TestAttrStageSumInvariant runs the full workload with Sample=1 under the
// check layer's stage-sum invariant on every engine variant. A wrong stamp
// anywhere — including a fabric-entry constant in the cycle-accurate
// engine's delivery stamp that puts entry before injection — breaks the
// telescoping sum and fails here.
func TestAttrStageSumInvariant(t *testing.T) {
	for _, tc := range []struct {
		name  string
		cycle bool
		dense bool
	}{
		{"fast", false, false},
		{"cycle-sparse", true, false},
		{"cycle-dense", true, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultConfig(4)
			cfg.CycleAccurate = tc.cycle
			cfg.denseSwitch = tc.dense
			cfg.Attr = &attr.Config{Sample: 1}
			cfg.Check = check.All()
			rep := Run(cfg, attrWorkload)
			if rep.Checks == nil || !rep.Checks.Ok() {
				t.Fatalf("invariant violations: %v", rep.Checks.Err())
			}
			if rep.Checks.FlowsChecked == 0 {
				t.Fatal("no flows checked")
			}
			if rep.Attr == nil {
				t.Fatal("Report.Attr not populated")
			}
			if rep.Attr.Completed == 0 {
				t.Fatal("no flows completed")
			}
			if rep.Attr.Lost != 0 {
				t.Fatalf("%d flows lost in a fault-free run", rep.Attr.Lost)
			}
			// Every DV flow must have crossed the fabric.
			if rep.Attr.Stages[attr.StageFabric].Total <= 0 {
				t.Fatal("no fabric time attributed")
			}
			if tc.cycle && rep.Attr.Heat == nil {
				t.Fatal("cycle-accurate run has no deflection heatmap")
			}
		})
	}
}

// TestAttrMutationsCaught proves the stage-sum invariant actually detects
// broken stamping: each planted mutation must produce violations.
func TestAttrMutationsCaught(t *testing.T) {
	for _, tc := range []struct {
		name string
		mut  attr.Mutation
	}{
		{"double-fabric", attr.MutDoubleFabric},
		{"skip-drain", attr.MutSkipDrain},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultConfig(4)
			cfg.Stacks = StackDV
			cfg.Attr = &attr.Config{Sample: 1, Mutate: tc.mut}
			cfg.Check = check.All()
			rep := Run(cfg, attrWorkload)
			if rep.Checks == nil {
				t.Fatal("no check result")
			}
			if rep.Checks.Ok() {
				t.Fatalf("mutation %s not caught by stage-sum invariant", tc.name)
			}
			for _, v := range rep.Checks.Violations {
				if v.Layer != "attr" {
					t.Fatalf("unexpected violation layer %q: %s", v.Layer, v)
				}
			}
		})
	}
}

// TestAttrPureObservation is the golden-diff proof in miniature: a run with
// attribution on must produce a Report that is byte-identical (modulo the
// Attr field itself) to the same run with attribution off.
func TestAttrPureObservation(t *testing.T) {
	for _, tc := range []struct {
		name  string
		cycle bool
	}{{"fast", false}, {"cycle", true}} {
		t.Run(tc.name, func(t *testing.T) {
			run := func(on bool) []byte {
				cfg := DefaultConfig(4)
				cfg.CycleAccurate = tc.cycle
				if on {
					cfg.Attr = &attr.Config{Sample: 1}
				}
				rep := Run(cfg, attrWorkload)
				rep.Attr = nil // the only field allowed to differ
				b, err := json.MarshalIndent(rep, "", " ")
				if err != nil {
					t.Fatal(err)
				}
				return b
			}
			off, on := run(false), run(true)
			if !bytes.Equal(off, on) {
				t.Fatalf("attribution changed the run:\noff: %s\non:  %s", off, on)
			}
		})
	}
}

// TestAttrDeterministic pins byte-for-byte reproducibility of the summary.
func TestAttrDeterministic(t *testing.T) {
	run := func() []byte {
		cfg := DefaultConfig(4)
		cfg.Attr = &attr.Config{Sample: 1, TopK: 8, Trace: true}
		rep := Run(cfg, attrWorkload)
		b, err := json.Marshal(rep.Attr)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	a, b := run(), run()
	if !bytes.Equal(a, b) {
		t.Fatal("attribution summary not deterministic across identical runs")
	}
	var sum attr.Summary
	if err := json.Unmarshal(a, &sum); err != nil {
		t.Fatal(err)
	}
	if len(sum.CritPath) == 0 {
		t.Fatal("no critical path computed with tracing on")
	}
}

// TestAttrSampling checks that sampling reduces traced flows deterministically.
func TestAttrSampling(t *testing.T) {
	count := func(sample uint64) int64 {
		cfg := DefaultConfig(4)
		cfg.Stacks = StackDV
		cfg.Attr = &attr.Config{Sample: sample}
		rep := Run(cfg, attrWorkload)
		return rep.Attr.Begun
	}
	all := count(1)
	some := count(4)
	if all == 0 {
		t.Fatal("no flows traced at Sample=1")
	}
	if some >= all {
		t.Fatalf("Sample=4 traced %d flows, Sample=1 traced %d; sampling had no effect", some, all)
	}
	if again := count(4); again != some {
		t.Fatalf("sampling not deterministic: %d vs %d", some, again)
	}
}

// attrCkptBody keeps long-lived flows in flight across checkpoint
// boundaries: wide DMA puts serialise on the TX FIFO, so at almost any
// instant some flow is mid-pipeline.
func attrCkptBody(n *Node) {
	words := make([]uint64, 24)
	for r := 0; r < 30; r++ {
		dst := (n.ID + 1 + r%3) % 4
		for i := range words {
			words[i] = uint64(r)<<16 | uint64(n.ID)<<8 | uint64(i)
		}
		n.DV.Put(vic.DMACached, dst, uint32(64+32*(r%8)), vic.NoGC, words)
		n.Compute(150 * sim.Nanosecond)
		if r%10 == 9 {
			n.MPI.Barrier()
		}
	}
	n.MPI.Barrier()
}

// TestAttrAcrossCheckpoint covers the observation layers under managed runs:
// a managed run finishes with attribution and a recorded trace byte-identical
// to the straight-through run's, and a repeat takes the same path.
func TestAttrAcrossCheckpoint(t *testing.T) {
	mk := func(cp *Checkpoint) Config {
		cfg := DefaultConfig(4)
		cfg.Check = check.All()
		cfg.Attr = &attr.Config{Sample: 1, TopK: 8, Trace: true}
		cfg.Checkpoint = cp
		return cfg
	}
	traceCSV := func(rep *Report) []byte {
		log, err := rep.Attr.Trace()
		if err != nil {
			t.Fatal(err)
		}
		var b bytes.Buffer
		if err := log.WriteCSV(&b); err != nil {
			t.Fatal(err)
		}
		return b.Bytes()
	}
	base := Run(mk(nil), attrCkptBody)
	if !base.Checks.Ok() {
		t.Fatalf("straight run invariants: %v", base.Checks.Err())
	}
	if base.Attr == nil || base.Attr.Completed == 0 {
		t.Fatal("straight run has no attribution")
	}
	baseJSON := reportJSON(t, base)
	baseCSV := traceCSV(base)

	boundaries, err := Audit(sim.Microsecond, func(cp *Checkpoint) (any, error) {
		rep := Run(mk(cp), attrCkptBody)
		if cp.Err != nil {
			return rep, nil
		}
		if got := reportJSON(t, rep); got != baseJSON {
			t.Errorf("managed Report (attr on) differs from unmanaged:\n got %s\nwant %s", got, baseJSON)
		}
		if !bytes.Equal(baseCSV, traceCSV(rep)) {
			t.Error("trace recorded under the managed pump differs from the straight run")
		}
		return rep, nil
	})
	if err != nil {
		t.Fatalf("determinism audit: %v", err)
	}
	if len(boundaries) < 2 {
		t.Fatalf("expected >=2 boundaries, got %d", len(boundaries))
	}
}
