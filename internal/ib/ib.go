// Package ib models an FDR InfiniBand fabric: the baseline interconnect of
// the paper's evaluation cluster. The model is a two-level fat tree (leaf
// and spine switches) with statically routed links, LogGP-style NIC
// occupancy, and per-message switching overheads. It reproduces the
// qualitative behaviours the paper's comparison rests on: high bandwidth for
// large transfers, per-message costs that punish fine-grained traffic, and
// congestion on oversubscribed uplinks under unstructured communication.
package ib

import (
	"fmt"

	"repro/internal/obs"
	"repro/internal/sim"
)

// Params holds the fabric's structural and timing parameters, calibrated to
// the paper's FDR InfiniBand numbers: 6.8 GB/s nominal peak per port, with a
// single MPI stream reaching about 72% of it (Figure 3b).
type Params struct {
	// LinkBW is the nominal link bandwidth in bytes/s (FDR 4x: 6.8 GB/s).
	LinkBW float64
	// StreamBW is the effective bandwidth one message stream achieves
	// through a NIC (protocol and DMA overheads; ≈72% of LinkBW).
	StreamBW float64
	// HopLatency is the propagation plus switching latency per hop.
	HopLatency sim.Time
	// NICGap is the minimum NIC occupancy per message (message-rate cap).
	NICGap sim.Time
	// LinkMsgGap is the minimum per-message occupancy of a switch link
	// (head-of-line cost for small messages crossing the tree).
	LinkMsgGap sim.Time
	// LeafSize is the number of nodes per leaf switch.
	LeafSize int
	// Spines is the number of spine switches (uplinks per leaf).
	Spines int
	// Adaptive selects per-message least-loaded spine routing instead of
	// the static destination-based routing real IB fat trees of the
	// paper's era used (Hoefler et al., the paper's ref [33], blame static
	// routing for unstructured-traffic pathologies).
	Adaptive bool
}

// DefaultParams returns the calibrated FDR InfiniBand parameters.
func DefaultParams() Params {
	return Params{
		LinkBW:     6.8e9,
		StreamBW:   4.9e9,
		HopLatency: 150 * sim.Nanosecond,
		NICGap:     250 * sim.Nanosecond,
		LinkMsgGap: 120 * sim.Nanosecond,
		LeafSize:   8,
		Spines:     2,
	}
}

// MaxNodes bounds the node count of a fabric. New allocates pipes per node
// and ForNodes squares its leaf size, so past this bound a run would exhaust
// memory before it starts, or ForNodes' search would overflow. 2^20 nodes
// (1024-port leaves and spines) is far past any fat tree the paper's
// comparison needs; the bound exists to make those failures impossible, not
// to be reachable.
const MaxNodes = 1 << 20

// ForNodes returns fat-tree parameters scaled to an n-node cluster with
// full bisection: LeafSize = Spines = the smallest power of two whose square
// covers n, so every leaf has as many uplinks as nodes and no level is
// oversubscribed. The paper's fixed testbed tree (8 nodes/leaf, 2 spines) is
// 4:1 oversubscribed beyond a few leaves; comparing a scaled Data Vortex
// against it would flatter deflection routing, so scaling studies use this
// instead. Timing parameters stay at the FDR calibration. n must be at most
// MaxNodes.
func ForNodes(n int) Params {
	if n > MaxNodes {
		panic(fmt.Sprintf("ib: %d nodes exceed MaxNodes (%d)", n, MaxNodes))
	}
	k := 1
	for k*k < n {
		k *= 2
	}
	p := DefaultParams()
	p.LeafSize = k
	p.Spines = k
	return p
}

// Stats aggregates fabric telemetry.
type Stats struct {
	Messages  int64
	Bytes     int64
	InterLeaf int64 // messages that crossed the spine level

	Flaps          int64    // scheduled uplink outages applied (fault plans)
	FlapsRecovered int64    // outages whose window has ended (link back up)
	FlapDowntime   sim.Time // total scheduled outage duration
}

// Fabric is the event-level InfiniBand model. Transfers are reserved on the
// NIC and link pipes without blocking; callers observe source-buffer reuse
// and arrival through the returned times and callback.
type Fabric struct {
	k      *sim.Kernel
	n      int
	par    Params
	nicOut []sim.Pipe
	nicIn  []sim.Pipe
	up     []sim.Pipe // [leaf*Spines+spine]
	down   []sim.Pipe
	st     Stats
}

// SetObs registers views of the fabric's Stats on r.
func (f *Fabric) SetObs(r *obs.Registry) {
	r.CounterFunc("ib_messages_total", func() int64 { return f.st.Messages })
	r.CounterFunc("ib_bytes_total", func() int64 { return f.st.Bytes })
	r.CounterFunc("ib_interleaf_total", func() int64 { return f.st.InterLeaf })
	r.CounterFunc("ib_flaps_total", func() int64 { return f.st.Flaps })
	r.CounterFunc("ib_flap_recoveries_total", func() int64 { return f.st.FlapsRecovered })
}

// UplinkBusy returns the cumulative busy time across every leaf↔spine link
// (both directions) — the fabric's aggregate link utilisation numerator.
func (f *Fabric) UplinkBusy() sim.Time {
	var t sim.Time
	for i := range f.up {
		t += f.up[i].Busy + f.down[i].Busy
	}
	return t
}

// New builds a fabric connecting n nodes.
func New(k *sim.Kernel, n int, par Params) *Fabric {
	if par.LeafSize <= 0 || par.Spines <= 0 {
		panic(fmt.Sprintf("ib: invalid topology params %+v", par))
	}
	if n > MaxNodes {
		panic(fmt.Sprintf("ib: %d nodes exceed MaxNodes (%d)", n, MaxNodes))
	}
	leaves := (n + par.LeafSize - 1) / par.LeafSize
	return &Fabric{
		k:      k,
		n:      n,
		par:    par,
		nicOut: make([]sim.Pipe, n),
		nicIn:  make([]sim.Pipe, n),
		up:     make([]sim.Pipe, leaves*par.Spines),
		down:   make([]sim.Pipe, leaves*par.Spines),
	}
}

// Nodes returns the number of attached nodes.
func (f *Fabric) Nodes() int { return f.n }

// FabricStats returns a copy of the aggregate telemetry.
func (f *Fabric) FabricStats() Stats { return f.st }

func (f *Fabric) leaf(node int) int { return node / f.par.LeafSize }

// ScheduleFlap takes the leaf↔spine uplink (both directions) down for d
// starting at time start, modelling a link flap from a fault plan. IB is
// lossless link-level: traffic queued behind a down link waits it out, so a
// flap shows up as added latency, not loss. Out-of-range links are ignored
// (plans may target a larger topology); past start times fire immediately.
func (f *Fabric) ScheduleFlap(leaf, spine int, start, d sim.Time) {
	if d <= 0 || spine >= f.par.Spines || leaf >= len(f.up)/f.par.Spines {
		return
	}
	if now := f.k.Now(); start < now {
		start = now
	}
	f.k.At(start, func() {
		f.st.Flaps++
		f.st.FlapDowntime += d
		f.up[leaf*f.par.Spines+spine].ReserveAt(start, d)
		f.down[leaf*f.par.Spines+spine].ReserveAt(start, d)
	})
	// Daemon event: recovery is telemetry only and must not keep a run
	// alive past its last real work (a flap window can outlive the app).
	f.k.AtDaemon(start+d, func() { f.st.FlapsRecovered++ })
}

// occupancy returns the time a resource is held by a message of the given
// size at the given bandwidth, floored by the per-message gap.
func occupancy(bytes int, bw float64, gap sim.Time) sim.Time {
	d := sim.BytesAt(bytes, bw)
	if d < gap {
		d = gap
	}
	return d
}

// Transfer is TransferArg for a caller with nothing to pass to its callback.
func (f *Fabric) Transfer(src, dst, bytes int, onArrive func()) (srcFree sim.Time) {
	return f.TransferArg(src, dst, bytes, callFunc, onArrive)
}

func callFunc(fn any) { fn.(func())() }

// TransferArg reserves the path for one message of the given size from src
// to dst. It returns the time at which the source buffer is reusable and
// schedules onArrive(arg) at delivery time (see sim.Kernel.AtArg: a caller
// that pools its arguments schedules without a closure per message). The
// caller must be at the current kernel time.
func (f *Fabric) TransferArg(src, dst, bytes int, onArrive func(any), arg any) (srcFree sim.Time) {
	if src < 0 || src >= f.n || dst < 0 || dst >= f.n {
		panic(fmt.Sprintf("ib: node out of range: src=%d dst=%d n=%d", src, dst, f.n))
	}
	f.st.Messages++
	f.st.Bytes += int64(bytes)
	par := f.par
	// Source NIC injection. Downstream stages are cut-through: each starts
	// (one hop later) as the head of the message reaches it, so a large
	// transfer's stages overlap and bandwidth is set by the slowest stage,
	// not the stage count.
	sendDur := occupancy(bytes, par.StreamBW, par.NICGap)
	injected := f.nicOut[src].Reserve(f.k, sendDur)
	srcFree = injected
	head := injected - sendDur + par.HopLatency // head reaches the leaf switch
	if src == dst {
		// Loopback through the local NIC only.
		head = injected - sendDur
	} else if f.leaf(src) != f.leaf(dst) {
		// Static destination routing: the spine is chosen by the
		// destination leaf, concentrating unstructured traffic onto
		// shared uplinks — the fat-tree pathology of Hoefler et al. the
		// paper cites for irregular workloads. Adaptive mode picks the
		// least-loaded uplink instead.
		f.st.InterLeaf++
		spine := f.leaf(dst) % par.Spines
		if par.Adaptive {
			base := f.leaf(src) * par.Spines
			for s := 0; s < par.Spines; s++ {
				if f.up[base+s].BusyUntil() < f.up[base+spine].BusyUntil() {
					spine = s
				}
			}
		}
		linkDur := occupancy(bytes, par.LinkBW, par.LinkMsgGap)
		u := &f.up[f.leaf(src)*par.Spines+spine]
		head = u.ReserveAt(head, linkDur) - linkDur + par.HopLatency
		d := &f.down[f.leaf(dst)*par.Spines+spine]
		head = d.ReserveAt(head, linkDur) - linkDur + par.HopLatency
	} else {
		// One leaf switch traversal.
		head += par.HopLatency
	}
	// Destination NIC: delivery completes when the tail clears it.
	arrive := f.nicIn[dst].ReserveAt(head, occupancy(bytes, par.StreamBW, par.NICGap))
	f.k.AtArg(arrive, onArrive, arg)
	return srcFree
}
