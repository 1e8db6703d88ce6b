package attr

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/trace"
)

const usT = sim.Microsecond

// TestStampTelescoping pins the core property: stage durations are adjacent
// differences of one monotone clock, so they sum to end-to-end latency.
func TestStampTelescoping(t *testing.T) {
	tr := NewTracer(&Config{}, 16)
	id := tr.Begin(0, 3, KindWrite, 10*usT)
	if id == 0 {
		t.Fatal("flow not traced at Sample=0")
	}
	tr.Stamp(id, StageHostTx, 12*usT)
	tr.Stamp(id, StageSRAM, 13*usT)
	tr.StampFabric(id, 15*usT, 19*usT, 4, 1)
	tr.Stamp(id, StageEject, 20*usT)
	tr.Complete(id, 22*usT)

	f := tr.At(0)
	if !f.Done {
		t.Fatal("flow not done")
	}
	want := [NumStages]sim.Time{2 * usT, 1 * usT, 2 * usT, 4 * usT, 1 * usT, 2 * usT}
	if f.Dur != want {
		t.Fatalf("stage durations = %v, want %v", f.Dur, want)
	}
	var sum sim.Time
	for _, d := range f.Dur {
		sum += d
	}
	if sum != f.E2E() || f.E2E() != 12*usT {
		t.Fatalf("stage sum %v != e2e %v", sum, f.E2E())
	}
	if f.Hops != 4 || f.Deflections != 1 {
		t.Fatalf("hops/deflections = %d/%d", f.Hops, f.Deflections)
	}
}

// TestCompleteIdempotent: double completion must not double-count.
func TestCompleteIdempotent(t *testing.T) {
	tr := NewTracer(&Config{}, 16)
	id := tr.Begin(0, 1, KindFIFO, 0)
	tr.Complete(id, 5*usT)
	tr.Complete(id, 9*usT)
	s := tr.Finalize(0)
	if s.Completed != 1 {
		t.Fatalf("completed = %d", s.Completed)
	}
	if got := tr.At(0).End; got != 5*usT {
		t.Fatalf("End moved on re-completion: %v", got)
	}
}

// TestNilSafety: every method on a nil tracer must be a no-op.
func TestNilSafety(t *testing.T) {
	var tr *Tracer
	if id := tr.Begin(0, 1, KindWrite, 0); id != 0 {
		t.Fatal("nil Begin returned a flow")
	}
	tr.Stamp(1, StageSRAM, 0)
	tr.StampFabric(1, 0, 0, 0, 0)
	tr.Complete(1, 0)
	tr.Drop(1)
	tr.SetEpoch(0, 1)
	tr.MPIFlow(0, 1, 0, 1, 8)
	tr.Compute(0, 0, 1)
	tr.SetMutation(MutSkipDrain)
	if tr.Len() != 0 || tr.Finalize(0) != nil || tr.HeatGrid(2, 2) != nil {
		t.Fatal("nil tracer returned state")
	}
	var h *Heat
	h.Add(0, 0) // must not panic
	if h.Total() != 0 {
		t.Fatal("nil heat returned counts")
	}
}

// TestSampling pins the hash-based sampler: deterministic for a fixed
// (Seed, Sample), roughly 1-in-N, and different seeds select different sets.
func TestSampling(t *testing.T) {
	pick := func(seed uint64) []uint64 {
		tr := NewTracer(&Config{Sample: 8, Seed: seed}, 16)
		var kept []uint64
		for i := uint64(0); i < 4096; i++ {
			if tr.Begin(0, 1, KindWrite, 0) != 0 {
				kept = append(kept, i)
			}
		}
		return kept
	}
	a, b := pick(1), pick(1)
	if len(a) != len(b) {
		t.Fatalf("sampling not deterministic: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("sampling not deterministic")
		}
	}
	// 4096/8 = 512 expected; allow generous slack for the hash.
	if len(a) < 256 || len(a) > 768 {
		t.Fatalf("kept %d of 4096 at 1-in-8", len(a))
	}
	c := pick(2)
	same := 0
	for i := 0; i < len(a) && i < len(c); i++ {
		if a[i] == c[i] {
			same++
		}
	}
	if len(c) > 0 && same == len(c) && len(a) == len(c) {
		t.Fatal("different seeds selected identical flow sets")
	}
}

// TestMaxFlowsOverflow: flows past the cap are counted, not retained.
func TestMaxFlowsOverflow(t *testing.T) {
	tr := NewTracer(&Config{MaxFlows: 2}, 16)
	for i := 0; i < 5; i++ {
		tr.Begin(0, 1, KindWrite, 0)
	}
	s := tr.Finalize(0)
	if s.Begun != 2 || s.Overflow != 3 {
		t.Fatalf("begun=%d overflow=%d, want 2/3", s.Begun, s.Overflow)
	}
}

// TestEpochs pins retransmit-epoch bracketing: flows begun inside a bracket
// carry the epoch; the first entry into an epoch is counted once.
func TestEpochs(t *testing.T) {
	tr := NewTracer(&Config{}, 16)
	a := tr.Begin(2, 0, KindWrite, 0)
	tr.SetEpoch(2, 1)
	b := tr.Begin(2, 0, KindWrite, 0)
	tr.SetEpoch(2, 2)
	c := tr.Begin(2, 0, KindWrite, 0)
	tr.SetEpoch(2, 0)
	d := tr.Begin(2, 0, KindWrite, 0)
	for i, want := range map[uint32]uint16{a: 0, b: 1, c: 2, d: 0} {
		if got := tr.At(int(i - 1)).Epoch; got != want {
			t.Fatalf("flow %d epoch = %d, want %d", i, got, want)
		}
	}
	if tr.epochEvents != 1 {
		t.Fatalf("epochEvents = %d, want 1 (re-entry within a round is one event)", tr.epochEvents)
	}
}

// TestMutations: planted defects must break the telescoping sum.
func TestMutations(t *testing.T) {
	for _, mut := range []Mutation{MutDoubleFabric, MutSkipDrain} {
		tr := NewTracer(&Config{Mutate: mut}, 16)
		id := tr.Begin(0, 1, KindWrite, 0)
		tr.Stamp(id, StageHostTx, 1*usT)
		tr.StampFabric(id, 2*usT, 5*usT, 3, 0)
		tr.Complete(id, 7*usT)
		f := tr.At(0)
		var sum sim.Time
		for _, d := range f.Dur {
			sum += d
		}
		if sum == f.E2E() {
			t.Fatalf("mutation %d left stage sum intact", mut)
		}
	}
}

// TestSummaryAggregation checks the per-stage/per-node/per-kind rollups and
// the slowest-flow ordering.
func TestSummaryAggregation(t *testing.T) {
	tr := NewTracer(&Config{TopK: 2}, 16)
	// Node 1, write, e2e 4us.
	a := tr.Begin(1, 0, KindWrite, 0)
	tr.StampFabric(a, 1*usT, 3*usT, 2, 0)
	tr.Complete(a, 4*usT)
	// Node 0, fifo, e2e 9us (slowest).
	b := tr.Begin(0, 1, KindFIFO, 0)
	tr.StampFabric(b, 2*usT, 6*usT, 4, 2)
	tr.Complete(b, 9*usT)
	// Node 0, lost flow.
	tr.Begin(0, 1, KindWrite, 0)
	tr.Drop(3)

	s := tr.Finalize(0)
	if s.Begun != 3 || s.Completed != 2 || s.Lost != 1 {
		t.Fatalf("begun/completed/lost = %d/%d/%d", s.Begun, s.Completed, s.Lost)
	}
	if s.E2EMax != 9*usT || s.E2ETotal != 13*usT {
		t.Fatalf("e2e total/max = %v/%v", s.E2ETotal, s.E2EMax)
	}
	if s.Hops != 6 || s.Deflections != 2 {
		t.Fatalf("hops/deflections = %d/%d", s.Hops, s.Deflections)
	}
	if s.Stages[StageFabric].Total != 6*usT || s.Stages[StageFabric].Max != 4*usT {
		t.Fatalf("fabric agg = %+v", s.Stages[StageFabric])
	}
	if len(s.PerNode) != 2 || s.PerNode[0].Node != 0 || s.PerNode[1].Node != 1 {
		t.Fatalf("per-node rows not sorted: %+v", s.PerNode)
	}
	if len(s.PerKind) != 2 || s.PerKind[0].Kind != "write" || s.PerKind[1].Kind != "fifo" {
		t.Fatalf("per-kind rows not in kind order: %+v", s.PerKind)
	}
	if len(s.Slowest) != 2 || s.Slowest[0].ID != b || s.Slowest[1].ID != a {
		t.Fatalf("slowest order wrong: %+v", s.Slowest)
	}

	// Rendering is byte-deterministic and mentions every stage.
	var b1, b2 bytes.Buffer
	if err := s.WriteTable(&b1); err != nil {
		t.Fatal(err)
	}
	if err := s.WriteTable(&b2); err != nil {
		t.Fatal(err)
	}
	if b1.String() != b2.String() {
		t.Fatal("WriteTable not deterministic")
	}
	for i := 0; i < NumStages; i++ {
		if !strings.Contains(b1.String(), Stage(i).Name()) {
			t.Fatalf("table missing stage %s:\n%s", Stage(i).Name(), b1.String())
		}
	}
	var nb bytes.Buffer
	if err := s.WriteNodeTable(&nb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(nb.String(), "fabric_us") {
		t.Fatalf("node table malformed:\n%s", nb.String())
	}
	var sb bytes.Buffer
	if err := s.WriteSlowest(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "fifo") {
		t.Fatalf("slowest table missing slowest flow:\n%s", sb.String())
	}
}

// TestHeat checks the census grid and its rendering.
func TestHeat(t *testing.T) {
	tr := NewTracer(&Config{}, 16)
	h := tr.HeatGrid(2, 3)
	h.Add(0, 1)
	h.Add(1, 2)
	h.Add(1, 2)
	if h.Total() != 3 || h.At(1, 2) != 2 || h.At(0, 0) != 0 {
		t.Fatalf("heat counts wrong: %+v", h)
	}
	if g := tr.HeatGrid(2, 3); g != h {
		t.Fatal("HeatGrid not stable for same geometry")
	}
	s := tr.Finalize(0)
	if s.Heat != h {
		t.Fatal("summary does not carry the heat grid")
	}
	var b bytes.Buffer
	if err := s.WriteHeat(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "total 3") {
		t.Fatalf("heat render wrong:\n%s", b.String())
	}
}

// TestCriticalPath walks a hand-built three-node trace: node 2 finishes last
// after waiting on a message from node 1, which waited on node 0.
func TestCriticalPath(t *testing.T) {
	r := &trace.Log{
		States: []trace.StateRec{
			{Node: 0, State: "compute", T0: 0, T1: 5 * usT},
			{Node: 1, State: "compute", T0: 7 * usT, T1: 12 * usT},
			{Node: 2, State: "compute", T0: 15 * usT, T1: 20 * usT},
		},
		Messages: []trace.MsgRec{
			{Src: 0, Dst: 1, T0: 5 * usT, T1: 7 * usT, Bytes: 64},
			{Src: 1, Dst: 2, T0: 12 * usT, T1: 15 * usT, Bytes: 64},
			// A red herring: an early message into node 2 that is not the
			// bottleneck.
			{Src: 0, Dst: 2, T0: 1 * usT, T1: 2 * usT, Bytes: 8},
		},
	}

	steps := CriticalPath(r)
	if len(steps) != 5 {
		t.Fatalf("got %d steps: %+v", len(steps), steps)
	}
	wantKinds := []string{"local", "msg", "local", "msg", "local"}
	wantNodes := []int{0, 1, 1, 2, 2}
	for i, st := range steps {
		if st.Kind != wantKinds[i] || st.Node != wantNodes[i] {
			t.Fatalf("step %d = %+v, want kind %s node %d", i, st, wantKinds[i], wantNodes[i])
		}
	}
	// Chronological and contiguous: each step starts where the previous ended.
	for i := 1; i < len(steps); i++ {
		if steps[i].T0 != steps[i-1].T1 {
			t.Fatalf("path not contiguous at step %d: %+v", i, steps)
		}
	}
	if steps[4].T1 != 20*usT || steps[0].T0 != 0 {
		t.Fatalf("path does not span the run: %+v", steps)
	}
	var b bytes.Buffer
	if err := WriteCritPath(&b, steps); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "critical path: 5 steps") {
		t.Fatalf("render wrong:\n%s", b.String())
	}
}

// TestCriticalPathZeroLength: DV packet records have T0 == T1; the strict
// progress rule must still terminate and rewind through them.
func TestCriticalPathZeroLength(t *testing.T) {
	r := &trace.Log{
		States: []trace.StateRec{{Node: 1, State: "compute", T0: 3 * usT, T1: 8 * usT}},
		Messages: []trace.MsgRec{
			{Src: 0, Dst: 1, T0: 3 * usT, T1: 3 * usT, Bytes: 16},
			{Src: 1, Dst: 0, T0: 3 * usT, T1: 3 * usT, Bytes: 16}, // same-instant back-and-forth
		},
	}
	steps := CriticalPath(r)
	if len(steps) == 0 {
		t.Fatal("no path")
	}
	for i := 1; i < len(steps); i++ {
		if steps[i].T0 < steps[i-1].T0 {
			t.Fatalf("path not chronological: %+v", steps)
		}
	}
}

// TestCriticalPathIgnoresRecordOrder: two messages tied on every field the
// walk sorts by but their byte counts must give one path whichever order they
// were recorded in.
func TestCriticalPathIgnoresRecordOrder(t *testing.T) {
	render := func(first, second int) string {
		r := &trace.Log{
			States: []trace.StateRec{{Node: 1, State: "compute", T0: 2 * usT, T1: 5 * usT}},
			Messages: []trace.MsgRec{
				{Src: 0, Dst: 1, T0: usT, T1: 2 * usT, Bytes: first},
				{Src: 0, Dst: 1, T0: usT, T1: 2 * usT, Bytes: second},
			},
		}
		var b bytes.Buffer
		if err := WriteCritPath(&b, CriticalPath(r)); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	if a, b := render(8, 64), render(64, 8); a != b {
		t.Fatalf("recording order changed the path:\n%s\nvs\n%s", a, b)
	}
}

// TestTraceProjection pins how a traced run's flows become Figure 5's rows:
// a compute span is a "compute" state; an MPI flow is one message from issue
// to completion with its size; a flow the fabric stamped is one message of
// the tracer's wire size at its delivery (issue plus the stages up to the fabric), kept only
// at or before the run's end; a dropped flow, never stamped, is no row.
func TestTraceProjection(t *testing.T) {
	tr := NewTracer(&Config{Trace: true}, 24)
	tr.Compute(2, 1*usT, 4*usT)
	tr.MPIFlow(0, 1, 2*usT, 9*usT, 64)
	dv := tr.Begin(1, 2, KindWrite, 10*usT)
	tr.Stamp(dv, StageHostTx, 11*usT)
	tr.Stamp(dv, StageSRAM, 12*usT)
	tr.StampFabric(dv, 13*usT, 15*usT, 2, 0)
	tr.Stamp(dv, StageEject, 16*usT)
	tr.Complete(dv, 17*usT)
	tr.Drop(tr.Begin(2, 0, KindWrite, 10*usT))
	late := tr.Begin(0, 2, KindFIFO, 18*usT)
	tr.StampFabric(late, 19*usT, 30*usT, 5, 1) // delivers after the cut below

	log, err := tr.Finalize(20 * usT).Trace()
	if err != nil {
		t.Fatal(err)
	}
	wantStates := []trace.StateRec{{Node: 2, State: "compute", T0: 1 * usT, T1: 4 * usT}}
	wantMsgs := []trace.MsgRec{
		{Src: 0, Dst: 1, T0: 2 * usT, T1: 9 * usT, Bytes: 64},
		{Src: 1, Dst: 2, T0: 15 * usT, T1: 15 * usT, Bytes: 24},
	}
	if !reflect.DeepEqual(log.States, wantStates) || !reflect.DeepEqual(log.Messages, wantMsgs) {
		t.Fatalf("trace = %+v / %+v, want %+v / %+v", log.States, log.Messages, wantStates, wantMsgs)
	}

	if _, err := NewTracer(&Config{}, 16).Finalize(0).Trace(); err == nil {
		t.Error("an untraced run returned a trace")
	}
	over := NewTracer(&Config{Trace: true, MaxFlows: 1}, 16)
	over.MPIFlow(0, 1, 0, usT, 8)
	over.MPIFlow(1, 0, 0, usT, 8)
	if s := over.Finalize(usT); s.CritPath != nil {
		t.Error("a run past MaxFlows walked a critical path")
	} else if _, err := s.Trace(); err == nil {
		t.Error("a run past MaxFlows returned a partial trace")
	}
}

// TestMPIFlow checks the single-stage baseline flow.
func TestMPIFlow(t *testing.T) {
	tr := NewTracer(&Config{}, 16)
	tr.MPIFlow(0, 3, 2*usT, 9*usT, 64)
	s := tr.Finalize(0)
	if s.Completed != 1 {
		t.Fatalf("completed = %d", s.Completed)
	}
	f := tr.At(0)
	if f.Kind != KindMPI || f.E2E() != 7*usT || f.Dur[StageFabric] != 7*usT {
		t.Fatalf("mpi flow wrong: %+v", f)
	}
}

// TestChromeEvents checks span emission and flow binding.
func TestChromeEvents(t *testing.T) {
	tr := NewTracer(&Config{}, 16)
	id := tr.Begin(0, 2, KindWrite, 10*usT)
	tr.Stamp(id, StageHostTx, 12*usT)
	tr.StampFabric(id, 12*usT, 14*usT, 2, 0)
	tr.Complete(id, 15*usT)
	var evs obs.Pages[obs.TraceEvent]
	tr.ChromeEvents(&evs)
	var spans, starts, finishes int
	for i := 0; i < evs.Len(); i++ {
		ev := evs.At(i)
		switch ev.Ph {
		case "X":
			spans++
		case "s":
			starts++
			if ev.ID != uint64(id) {
				t.Fatalf("flow start id = %d", ev.ID)
			}
		case "f":
			finishes++
		}
	}
	// host_tx, fabric, eject (inject_wait and sram are zero-width, drain 1us).
	if spans == 0 || starts != 1 || finishes != 1 {
		t.Fatalf("spans/starts/finishes = %d/%d/%d", spans, starts, finishes)
	}
}
