package dv

import (
	"errors"
	"reflect"
	"runtime"
	"runtime/debug"
	"slices"
	"testing"

	"repro/internal/dvswitch"
	"repro/internal/faultplan"
	"repro/internal/sim"
	"repro/internal/vic"
)

// newFaultyTestbed is newTestbed with a fault plan applied to the
// cycle-accurate engine.
func newFaultyTestbed(n int, plan *faultplan.Plan) *testbed {
	k := sim.NewKernel()
	eng := dvswitch.NewEngine(k, dvswitch.ForPorts(n), dvswitch.DefaultCycleTime)
	eng.ApplyPlan(plan)
	tb := &testbed{k: k, eng: eng, eps: make([]*Endpoint, n)}
	vics := make([]*vic.VIC, n)
	for i := 0; i < n; i++ {
		vics[i] = vic.New(k, i, i, vic.DefaultParams(), eng.Inject)
		vics[i].BarrierInit(n)
		tb.eps[i] = NewEndpoint(vics[i], i, n)
	}
	eng.OnDeliver(func(pkt dvswitch.Packet) { vics[pkt.Dst].Receive(pkt) })
	return tb
}

func TestReliableWriteNoFaults(t *testing.T) {
	tb := newTestbed(2)
	vals := []uint64{10, 20, 30, 40}
	addr := tb.eps[0].Alloc(len(vals))
	tb.eps[1].Alloc(len(vals))
	var got []uint64
	tb.spmd(func(e *Endpoint) {
		if e.Rank() == 0 {
			if err := e.ReliableWrite(1, addr, vals); err != nil {
				t.Errorf("ReliableWrite: %v", err)
			}
			if err := e.ReliableBarrier(); err != nil {
				t.Errorf("barrier: %v", err)
			}
		} else {
			if err := e.ReliableBarrier(); err != nil {
				t.Errorf("barrier: %v", err)
			}
			got = e.Read(addr, len(vals))
		}
	})
	for i, v := range vals {
		if got[i] != v {
			t.Fatalf("word %d: got %d want %d", i, got[i], v)
		}
	}
	st := tb.eps[0].ReliableTelemetry()
	if st.Retransmits != 0 || st.Failures != 0 {
		t.Fatalf("clean run should not retransmit: %+v", st)
	}
	if st.Writes == 0 {
		t.Fatal("no writes counted")
	}
}

func TestReliableWriteUnderDrops(t *testing.T) {
	// 2%/hop drops: with ~10 hops per packet roughly one in five packets
	// dies, so retransmission must engage — and must converge.
	plan := &faultplan.Plan{Seed: 5, DropProb: 0.02}
	tb := newFaultyTestbed(4, plan)
	const words = 64
	addr := tb.eps[0].Alloc(words * 4)
	for _, e := range tb.eps[1:] {
		e.Alloc(words * 4)
	}
	results := make([][]uint64, 4)
	tb.spmd(func(e *Endpoint) {
		dst := (e.Rank() + 1) % e.Size()
		vals := make([]uint64, words)
		for i := range vals {
			vals[i] = uint64(e.Rank()*1000 + i + 1)
		}
		if err := e.ReliableWrite(dst, addr+uint32(e.Rank())*words, vals); err != nil {
			t.Errorf("rank %d: %v", e.Rank(), err)
		}
		if err := e.ReliableBarrier(); err != nil {
			t.Errorf("rank %d barrier: %v", e.Rank(), err)
		}
		src := (e.Rank() + e.Size() - 1) % e.Size()
		results[e.Rank()] = e.Read(addr+uint32(src)*words, words)
	})
	var total ReliableStats
	for _, e := range tb.eps {
		total.Merge(e.ReliableTelemetry())
	}
	if total.Retransmits == 0 {
		t.Error("expected retransmits at 2%/hop drop rate")
	}
	if total.Failures != 0 {
		t.Errorf("unexpected failures: %+v", total)
	}
	for rank, got := range results {
		src := (rank + 3) % 4
		for i, v := range got {
			if want := uint64(src*1000 + i + 1); v != want {
				t.Fatalf("rank %d word %d: got %d want %d", rank, i, v, want)
			}
		}
	}
}

func TestReliableDeliveryError(t *testing.T) {
	// Total loss: every packet drops, so the retry budget must run out and
	// surface a typed error rather than hanging.
	plan := &faultplan.Plan{Seed: 1, DropProb: 1}
	tb := newFaultyTestbed(2, plan)
	addr := tb.eps[0].Alloc(1)
	tb.eps[1].Alloc(1)
	var err error
	tb.spmd(func(e *Endpoint) {
		o := &e.rstate().opts // every node carves its scratch; only timing changes
		o.Timeout, o.MaxAttempts = 2*sim.Microsecond, 3
		o.QueryDelay, o.PollInterval = sim.Microsecond, sim.Microsecond
		if e.Rank() == 0 {
			err = e.ReliableWrite(1, addr, []uint64{7})
		}
	})
	var de *DeliveryError
	if !errors.As(err, &de) {
		t.Fatalf("want *DeliveryError, got %v", err)
	}
	if de.Dst != 1 || de.Attempts != 3 || de.Missing == 0 {
		t.Fatalf("unexpected error detail: %+v", de)
	}
	st := tb.eps[0].ReliableTelemetry()
	if st.Failures != 1 || st.RecoveryTime == 0 {
		t.Fatalf("failure accounting: %+v", st)
	}
}

func TestReliableScatterRejectsCountedWords(t *testing.T) {
	tb := newTestbed(2)
	addr := tb.eps[0].Alloc(1)
	tb.eps[1].Alloc(1)
	var err error
	tb.spmd(func(e *Endpoint) {
		if e.Rank() == 0 {
			err = e.ReliableScatter([]vic.Word{{Dst: 1, Op: vic.OpWrite, GC: 3, Addr: addr, Val: 1}})
		}
	})
	if err == nil {
		t.Fatal("GC-counted word must be rejected")
	}
}

func TestReliableScatterSplitsDuplicateAddr(t *testing.T) {
	// Two writes to the same (dst, addr): last-writer-wins means the second
	// must land after the first verifies, in a separate chunk.
	tb := newTestbed(2)
	addr := tb.eps[0].Alloc(1)
	tb.eps[1].Alloc(1)
	var got uint64
	tb.spmd(func(e *Endpoint) {
		if e.Rank() == 0 {
			err := e.ReliableScatter([]vic.Word{
				{Dst: 1, Op: vic.OpWrite, GC: vic.NoGC, Addr: addr, Val: 111},
				{Dst: 1, Op: vic.OpWrite, GC: vic.NoGC, Addr: addr, Val: 222},
			})
			if err != nil {
				t.Errorf("scatter: %v", err)
			}
			if err := e.ReliableBarrier(); err != nil {
				t.Errorf("barrier: %v", err)
			}
		} else {
			if err := e.ReliableBarrier(); err != nil {
				t.Errorf("barrier: %v", err)
			}
			got = e.Read(addr, 1)[0]
		}
	})
	if got != 222 {
		t.Fatalf("got %d want 222 (program order must win)", got)
	}
}

func TestReliableBarrierUnderDrops(t *testing.T) {
	plan := &faultplan.Plan{Seed: 9, DropProb: 0.03}
	tb := newFaultyTestbed(4, plan)
	arrived := make([]sim.Time, 4)
	tb.spmd(func(e *Endpoint) {
		e.Proc().Wait(sim.Time(e.Rank()) * sim.Microsecond) // skewed arrival
		for i := 0; i < 3; i++ {
			if err := e.ReliableBarrier(); err != nil {
				t.Errorf("rank %d: %v", e.Rank(), err)
			}
		}
		arrived[e.Rank()] = e.Proc().Now()
	})
	for r, at := range arrived {
		if at == 0 {
			t.Fatalf("rank %d never finished", r)
		}
	}
}

func TestReliableHeapGuard(t *testing.T) {
	tb := newTestbed(2)
	e := tb.eps[0]
	tb.spmd(func(ep *Endpoint) {
		if ep.Rank() == 0 {
			_ = ep.ReliableBarrier() // forces the scratch carve
		}
	})
	mem := e.V.Params().MemWords
	defer func() {
		if recover() == nil {
			t.Fatal("Alloc crossing the reliable scratch must panic")
		}
	}()
	e.Alloc(mem) // would overlap the carve
}

// raceBuild reports whether the test binary was built with -race, whose
// instrumentation changes what allocates.
func raceBuild() bool {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return false
	}
	for _, s := range bi.Settings {
		if s.Key == "-race" {
			return s.Value == "true"
		}
	}
	return false
}

// barrierBytes returns the heap bytes a 4-node testbed allocates building
// itself and running rounds ReliableBarriers on every node.
func barrierBytes(t *testing.T, rounds int) uint64 {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	tb := newTestbed(4)
	tb.spmd(func(e *Endpoint) {
		for range rounds {
			if err := e.ReliableBarrier(); err != nil {
				t.Errorf("rank %d: %v", e.Rank(), err)
			}
		}
	})
	runtime.ReadMemStats(&m1)
	return m1.TotalAlloc - m0.TotalAlloc
}

// TestReliableBarrierBytesPerRound bounds what one ReliableBarrier on 4 nodes
// allocates once the reliable layer is warm, set-up cancelled out by
// differencing 10 rounds against 2. The chunk, its membership map, the
// pending indices and the verify row are endpoint scratch, and data and
// queries stream into the VIC, so a round costs ~7 KB (kernel events and
// one-word PIO polls). Remaking the chunk and maps per call cost 468 KB.
func TestReliableBarrierBytesPerRound(t *testing.T) {
	if raceBuild() {
		t.Skip("-race instrumentation allocates")
	}
	perRound := (barrierBytes(t, 10) - barrierBytes(t, 2)) / 8
	if perRound > 16<<10 {
		t.Errorf("%d bytes allocated per ReliableBarrier on 4 nodes, want <= %d", perRound, 16<<10)
	}
}

// relRecorder records what the reliable layer reports to its checker: every
// sequence number stamped, and a copy of every chunk resolved.
type relRecorder struct {
	seqs []uint64
	done [][]vic.Word
	errs []error
}

func (c *relRecorder) ChunkSeq(_ *Endpoint, _ int, seq uint64) { c.seqs = append(c.seqs, seq) }
func (c *relRecorder) ChunkDone(_ *Endpoint, words []vic.Word, _ int, err error) {
	c.done = append(c.done, slices.Clone(words))
	c.errs = append(c.errs, err)
}

// TestReliableScratchReuse: the chunk scratch outlives each ReliableScatter,
// so every way out of one — a split on a duplicate (dst,addr), a
// DeliveryError, a rejected word after accepted ones — must leave it empty.
// The clean scatter that follows must send exactly its own word under the
// next sequence number and succeed; the first scatter's unsent words must
// never arrive.
func TestReliableScratchReuse(t *testing.T) {
	const a, b = 0, 1 // two slots on node 1
	write := func(addr uint32, val uint64) vic.Word {
		return vic.Word{Dst: 1, Op: vic.OpWrite, GC: vic.NoGC, Addr: addr, Val: val}
	}
	cases := []struct {
		name    string
		lossy   bool // every packet of the first scatter is lost
		first   []vic.Word
		wantErr func(error) bool
		chunks  int    // chunks the first scatter resolves
		atA     uint64 // node 1's slot a afterwards
	}{
		{"duplicate-split", false, []vic.Word{write(a, 111), write(a, 222)},
			func(err error) bool { return err == nil }, 2, 222},
		{"delivery-error", true, []vic.Word{write(a, 7)},
			func(err error) bool { var de *DeliveryError; return errors.As(err, &de) }, 1, 0},
		{"rejected-word", false, []vic.Word{write(a, 5), {Dst: 1, Op: vic.OpWrite, GC: 3, Addr: b, Val: 6}},
			func(err error) bool { return err != nil }, 0, 0},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var plan *faultplan.Plan
			if c.lossy {
				plan = &faultplan.Plan{Seed: 1, DropProb: 1}
			}
			tb := newFaultyTestbed(2, plan)
			tb.eps[0].Alloc(2)
			tb.eps[1].Alloc(2)
			rec := &relRecorder{}
			tb.eps[0].SetChecker(rec)
			var firstErr, cleanErr error
			tb.spmd(func(e *Endpoint) {
				o := &e.rstate().opts // every node carves its scratch; only timing changes
				o.Timeout, o.MaxAttempts = 2*sim.Microsecond, 3
				o.QueryDelay = sim.Microsecond
				if e.Rank() != 0 {
					return
				}
				firstErr = e.ReliableScatter(c.first)
				tb.eng.Core().SetFaultProbs(dvswitch.FaultProbs{}, nil) // the fabric heals
				cleanErr = e.ReliableScatter([]vic.Word{write(b, 333)})
			})
			if !c.wantErr(firstErr) {
				t.Fatalf("first scatter returned %v", firstErr)
			}
			if cleanErr != nil {
				t.Fatalf("clean scatter after the first: %v", cleanErr)
			}
			for i, s := range rec.seqs {
				if s != uint64(i+1) {
					t.Fatalf("sequence numbers %v: want 1, 2, 3, ...", rec.seqs)
				}
			}
			if len(rec.done) != c.chunks+1 {
				t.Fatalf("%d chunks resolved, want %d then the clean one", len(rec.done), c.chunks)
			}
			marker := write(tb.eps[0].rel.seqBase, uint64(len(rec.seqs)))
			if got, want := rec.done[c.chunks], []vic.Word{marker, write(b, 333)}; !reflect.DeepEqual(got, want) || rec.errs[c.chunks] != nil {
				t.Fatalf("clean chunk %v (err %v), want exactly %v", got, rec.errs[c.chunks], want)
			}
			v1 := tb.eps[1].V
			if got := v1.Peek(b); got != 333 {
				t.Fatalf("slot b holds %d after the clean scatter, want 333", got)
			}
			if got := v1.Peek(a); got != c.atA {
				t.Fatalf("slot a holds %d, want %d", got, c.atA)
			}
		})
	}
}
