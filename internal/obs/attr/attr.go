// Package attr is the causal flow-tracing and latency-attribution layer: a
// deterministic, opt-in tracer that stamps sampled packets ("flows") with
// per-stage virtual timestamps as they cross the host→VIC→fabric→VIC→host
// pipeline, and aggregates the stamps into per-stage / per-node latency
// decompositions whose stage sums equal end-to-end latency exactly — the
// property the internal/check attribution invariant enforces.
//
// The stage model follows the path a Data Vortex word physically takes
// (§III of the paper): the host issues it (PIO doorbell / DMA descriptor),
// it crosses PCIe into VIC SRAM, waits out injection backpressure at its
// entry node, traverses the switch (deflection hops included), ejects, is
// executed by the destination VIC after the eject FIFO / processing delay,
// and — for surprise-FIFO traffic — is finally DMA-drained into the host
// ring. Each stamp closes the previous stage, so stage durations are
// adjacent differences of one monotone clock and their sum telescopes to
// end-to-end latency by construction; a dropped or double-counted stamp
// (see Mutation) breaks the sum and is caught by the invariant.
//
// Like internal/obs, everything is nil-safe: every method on a nil *Tracer
// is a no-op, so instrumented components pay one pointer test per seam when
// attribution is disabled — pinned at zero allocations by
// TestBoundaryZeroAllocs (internal/vic) and the ZeroAllocWithAttrCompiledIn
// tests (internal/dvswitch).
// Tracing is pure observation: no stamp blocks, advances virtual time,
// schedules an event, or consumes randomness, so enabling attribution
// provably cannot change a run's results (golden-pinned in apprt).
package attr

import (
	"repro/internal/obs"
	"repro/internal/sim"
)

// Stage indexes one segment of a flow's life. Stages are consecutive: each
// stamp closes the previous stage, so Dur[i] sums to exactly End-Issue.
type Stage uint8

const (
	// StageHostTx: app issue → PCIe transfer complete (doorbell latency plus
	// the word's PIO write or DMA chunk crossing the lane).
	StageHostTx Stage = iota
	// StageSRAM: PCIe transfer complete → fabric injection (VIC processing
	// delay and SRAM residency before the inject fires). The VIC closes it
	// when it hands the packet to the fabric.
	StageSRAM
	// StageInjectWait: fabric injection → fabric entry (injection-queue
	// backpressure at the busy entry node; the paper's injection
	// serialisation of one packet per cycle per port).
	StageInjectWait
	// StageFabric: fabric entry → ejection (per-hop switch traversal,
	// deflection hops included; Hops/Deflections count them).
	StageFabric
	// StageEject: ejection → destination-VIC execution (eject FIFO and the
	// VIC processing delay).
	StageEject
	// StageDrain: execution → host-visible completion. Zero for DV Memory
	// writes (the write is host-visible at execution); for surprise-FIFO
	// words it is the DMA drain into the host ring buffer.
	StageDrain

	// NumStages is the number of per-flow stages.
	NumStages = 6
)

// stageNames is indexed by Stage; the order is pipeline order.
var stageNames = [NumStages]string{
	"host_tx", "sram", "inject_wait", "fabric", "eject", "drain",
}

// Name returns the stage's table/JSON name.
func (s Stage) Name() string {
	if int(s) < NumStages {
		return stageNames[s]
	}
	return "unknown"
}

// Kind classifies a flow by the operation that produced it.
type Kind uint8

const (
	KindWrite Kind = iota // DV Memory write (Put/Scatter)
	KindFIFO              // surprise-FIFO send
	KindGC                // group-counter set/decrement (incl. barrier packets)
	KindQuery             // query request or reply
	KindMPI               // InfiniBand/MPI message (baseline stack)
	numKinds
)

var kindNames = [numKinds]string{"write", "fifo", "gc", "query", "mpi"}

// Name returns the kind's table/JSON name.
func (k Kind) Name() string {
	if int(k) < int(numKinds) {
		return kindNames[k]
	}
	return "unknown"
}

// Config enables flow tracing. The zero value traces every eligible packet;
// Sample thins deterministically for long runs.
type Config struct {
	// Sample keeps roughly 1-in-Sample flows, selected by a hash of
	// (Seed, flow ordinal) — not a stride, so periodic traffic cannot alias
	// with the sampling pattern. 0 or 1 keeps every flow.
	Sample uint64
	// Seed salts the sampling hash. Runs with equal (Seed, Sample) and equal
	// traffic trace identical flow sets.
	Seed uint64
	// TopK bounds the slowest-flow drill-down in the Summary (default 16).
	TopK int
	// MaxFlows caps retained flow records (default 1<<20). Flows past the
	// cap are counted in Summary.Overflow but not stamped or retained.
	MaxFlows int
	// Chrome also emits per-flow stage spans and s/f flow-binding events
	// into the run's event store (Metrics.Packets), after its packet spans,
	// for Chrome/Perfetto export (requires the Obs layer, which
	// cluster.Platform.Validate enforces). Off by default so a traced run's
	// Metrics stay byte-identical to an untraced run's.
	Chrome bool
	// Trace keeps what Figure 5's execution trace needs: every flow (Sample
	// must be 0 or 1, and a run past MaxFlows reports an error instead of a
	// partial trace) and one record per node compute span. The Summary then
	// carries the trace (Summary.Trace) and the critical path.
	Trace bool
	// Mutate plants deliberate stamping defects (test-only): used to prove
	// the check layer's stage-sum invariant actually detects broken stamps.
	Mutate Mutation
}

// Flow is one traced packet journey. Src/Dst are node ids; times are virtual.
// Fields are ordered so the narrow ones share words: 104 bytes, and a run
// holds one per traced packet.
type Flow struct {
	ID   uint32
	Hops int32
	Src  int32
	Dst  int32

	Issue sim.Time            // stamp T0: app issue
	End   sim.Time            // final stamp: host-visible completion
	last  sim.Time            // most recent stamp boundary (open flows)
	Dur   [NumStages]sim.Time // per-stage durations; sums to End-Issue

	Deflections int32
	Bytes       int32  // message size of a KindMPI flow
	Epoch       uint16 // reliable-layer retransmit epoch (0 = first attempt)
	Kind        Kind
	// Done marks a completed flow; a begun flow that never completes was
	// lost (fabric drop, CRC discard, FIFO overflow).
	Done bool
	// fabric marks a flow whose fabric stage was stamped: the switch
	// delivered it (or, on the fast model, will deliver it).
	fabric bool
}

// E2E returns the end-to-end latency of a completed flow.
func (f *Flow) E2E() sim.Time { return f.End - f.Issue }

// fabricSpan returns when the flow's packet was handed to the switch (issue
// plus its host and SRAM stages) and when the switch delivered it (plus its
// inject-wait and fabric stages). Meaningful once the fabric stamped it.
func (f *Flow) fabricSpan() (inject, eject sim.Time) {
	inject = f.Issue + f.Dur[StageHostTx] + f.Dur[StageSRAM]
	return inject, inject + f.Dur[StageInjectWait] + f.Dur[StageFabric]
}

// Tracer assigns flow identities and accumulates stamps. It is not safe for
// concurrent use: the simulation kernel is single-threaded, and so is the
// tracer (parallel sweep points each build their own kernel and tracer).
type Tracer struct {
	cfg   Config
	seq   uint64          // flow ordinals seen (sampling candidates)
	flows obs.Pages[Flow] // retained flows; flow id is record id-1, never moved

	wireBytes int // a fabric packet's size on the wire: its trace rows' and packet spans' bytes

	completed int64
	dropped   int64 // explicitly abandoned (CRC discard, FIFO overflow, fabric drop)
	overflow  int64 // sampled flows past MaxFlows, not retained

	epochs      map[int]uint16 // src node → current retransmit epoch
	epochEvents int64          // retransmit epochs entered

	heat *Heat // per-(cylinder, angle) deflection census, cycle-accurate runs

	computes obs.Pages[computeSpan] // node compute spans, kept under Config.Trace

	mut Mutation // planted defects for invariant validation (SetMutation)
}

// computeSpan is one node compute interval, [t0, t1).
type computeSpan struct {
	node   int32
	t0, t1 sim.Time
}

// NewTracer builds a tracer for cfg, whose fabric carries packets of
// wireBytes on the wire (dvswitch.WireBytes, which this package cannot
// import). cfg must not be nil.
func NewTracer(cfg *Config, wireBytes int) *Tracer {
	c := *cfg
	if c.TopK <= 0 {
		c.TopK = 16
	}
	if c.MaxFlows <= 0 {
		c.MaxFlows = 1 << 20
	}
	return &Tracer{cfg: c, wireBytes: wireBytes, epochs: make(map[int]uint16), mut: c.Mutate}
}

// splitmix64 is the SplitMix64 finalizer: cheap, high-quality, and
// deterministic. It is the run's one sampling hash: Begin thins flows with
// it, and PacketEvents thins the flows it projects into "packet" spans.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// sampled reports whether candidate i is among the roughly 1-in-every the
// tracer's hash keeps: (Seed, i), not a stride, so periodic traffic cannot
// alias with the pattern. every <= 1 keeps all.
func (t *Tracer) sampled(i, every uint64) bool {
	return every <= 1 || splitmix64(t.cfg.Seed^i)%every == 0
}

// Begin opens a flow for a packet issued at now, returning its id — or 0
// when the packet is not sampled (callers propagate 0 as "untraced" and
// skip every later stamp with one integer test). Nil-safe.
func (t *Tracer) Begin(src, dst int, kind Kind, now sim.Time) uint32 {
	if t == nil {
		return 0
	}
	i := t.seq
	t.seq++
	if !t.sampled(i, t.cfg.Sample) {
		return 0
	}
	if t.flows.Len() >= t.cfg.MaxFlows {
		t.overflow++
		return 0
	}
	id := uint32(t.flows.Len() + 1)
	t.flows.Append(Flow{
		ID: id, Src: int32(src), Dst: int32(dst), Kind: kind,
		Epoch: t.epochs[src], Issue: now, last: now,
	})
	return id
}

// Stamp closes stage s at now: the time since the previous stamp is charged
// to s. Nil-safe; id 0 is ignored.
func (t *Tracer) Stamp(id uint32, s Stage, now sim.Time) {
	if t == nil || id == 0 {
		return
	}
	f := t.flows.At(int(id - 1))
	f.Dur[s] += now - f.last
	f.last = now
}

// StampFabric closes the injection-wait stage at entry and the fabric stage
// at eject, recording the traversal telemetry. entry is the virtual time the
// packet left its injection queue and was placed into the fabric; eject is
// the delivery time. Nil-safe; id 0 is ignored.
func (t *Tracer) StampFabric(id uint32, entry, eject sim.Time, hops, deflections int) {
	if t == nil || id == 0 {
		return
	}
	t.stampFabric(id, entry, eject, hops, deflections)
}

// stampFabric is StampFabric's body. It stays out of line so that the
// untraced test above inlines at the fabric's delivery seam: inlined here it
// takes StampFabric 8 over the compiler's budget, and every delivery of an
// untraced run (a2a_dv_cycle256: +2 % wall) pays a call for it.
//
//go:noinline
func (t *Tracer) stampFabric(id uint32, entry, eject sim.Time, hops, deflections int) {
	f := t.flows.At(int(id - 1))
	f.Dur[StageInjectWait] += entry - f.last
	f.Dur[StageFabric] += eject - entry
	if t.mut&MutDoubleFabric != 0 {
		f.Dur[StageFabric] += eject - entry
	}
	f.last = eject
	f.fabric = true
	f.Hops += int32(hops)
	f.Deflections += int32(deflections)
}

// Complete closes the drain stage at now and marks the flow done. Nil-safe;
// id 0 is ignored.
func (t *Tracer) Complete(id uint32, now sim.Time) {
	if t == nil || id == 0 {
		return
	}
	f := t.flows.At(int(id - 1))
	if f.Done {
		return
	}
	f.Dur[StageDrain] += now - f.last
	if t.mut&MutSkipDrain != 0 {
		f.Dur[StageDrain] = 0
	}
	f.last = now
	f.End = now
	f.Done = true
	t.completed++
}

// Drop abandons a flow whose packet was lost (fabric drop, CRC discard,
// surprise-FIFO overflow). The flow stays open (Done == false) and is
// counted in Summary.Lost. Nil-safe; id 0 is ignored.
func (t *Tracer) Drop(id uint32) {
	if t == nil || id == 0 {
		return
	}
	t.dropped++
}

// SetEpoch tags subsequent flows issued by src with a reliable-layer
// retransmit epoch: 0 is the first attempt, n the n-th retransmission round.
// The reliable layer brackets each retransmission with SetEpoch(src, n) /
// SetEpoch(src, 0). Nil-safe.
func (t *Tracer) SetEpoch(src int, epoch int) {
	if t == nil {
		return
	}
	if epoch > 0 && t.epochs[src] == 0 {
		t.epochEvents++
	}
	if epoch <= 0 {
		delete(t.epochs, src)
		return
	}
	t.epochs[src] = uint16(epoch)
}

// MPIFlow records one InfiniBand/MPI message of the given size as a
// single-stage flow (the baseline stack has no VIC pipeline to decompose):
// issue at t0, the whole t0→t1 interval charged to the fabric stage,
// completion at t1. Sampling applies as for Begin. Nil-safe.
func (t *Tracer) MPIFlow(src, dst int, t0, t1 sim.Time, bytes int) {
	id := t.Begin(src, dst, KindMPI, t0)
	if id == 0 {
		return
	}
	f := t.flows.At(int(id - 1))
	f.Bytes = int32(bytes)
	f.Dur[StageFabric] = t1 - t0
	f.last = t1
	f.End = t1
	f.Done = true
	t.completed++
}

// Compute records that node computed from t0 to t1, when the tracer keeps a
// trace (Config.Trace). Nil-safe.
func (t *Tracer) Compute(node int, t0, t1 sim.Time) {
	if t != nil && t.cfg.Trace {
		t.compute(node, t0, t1)
	}
}

// compute is Compute's body, out of line so that the untraced test above
// inlines into every compute span of an untraced run, as StampFabric's does.
//
//go:noinline
func (t *Tracer) compute(node int, t0, t1 sim.Time) {
	t.computes.Append(computeSpan{node: int32(node), t0: t0, t1: t1})
}

// Len returns the number of retained flows (0 for a nil tracer).
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	return t.flows.Len()
}

// At returns retained flow i in id order (flow id i+1), 0 <= i < Len. The
// record is the tracer's own storage; callers must not mutate it.
func (t *Tracer) At(i int) *Flow { return t.flows.At(i) }

// HeatGrid lazily creates (or resizes) and returns the per-(cylinder, angle)
// deflection census the cycle-accurate switch core fills in. Nil for a nil
// tracer.
func (t *Tracer) HeatGrid(cylinders, angles int) *Heat {
	if t == nil {
		return nil
	}
	if t.heat == nil || t.heat.Cylinders != cylinders || t.heat.Angles != angles {
		t.heat = &Heat{Cylinders: cylinders, Angles: angles, Cells: make([]int64, cylinders*angles)}
	}
	return t.heat
}
