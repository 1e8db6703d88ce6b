// Package faultplan describes deterministic, virtual-time-windowed fault
// injection for the whole Data Vortex stack. A Plan is pure data: it names
// what goes wrong (per-link packet drop/corrupt probabilities, dead switch
// nodes with kill/revive times, VIC DMA-engine stalls, surprise-FIFO
// capacity squeezes, InfiniBand link flaps) and when. The consuming layers —
// dvswitch, vic, ib, wired together by cluster — read the plan through small
// injection hooks and draw every probabilistic fate from per-entity RNG
// streams derived from the plan seed, so a run under faults is exactly as
// bit-reproducible as a clean run.
package faultplan

import (
	"fmt"

	"repro/internal/sim"
)

// Window is a half-open virtual-time interval [Start, End) during which the
// probabilistic faults (drop/corrupt) are active. End == 0 means "until the
// end of the run".
type Window struct {
	Start sim.Time
	End   sim.Time
}

// Contains reports whether t falls inside the window.
func (w Window) Contains(t sim.Time) bool {
	return t >= w.Start && (w.End == 0 || t < w.End)
}

// DeadNode kills one switching node at (Cyl, Height, Angle) at virtual time
// Kill and revives it at Revive (0 = never). Cylinder 0 nodes cannot be
// killed: a dead entry node takes its injection port down permanently, which
// is a different failure class (and would wedge the lazily-pumped engine).
type DeadNode struct {
	Cyl, Height, Angle int
	Kill, Revive       sim.Time
}

// DMAStall wedges both DMA engines of one VIC for Stall starting at At,
// modelling a firmware hiccup or a host IOMMU stall. In-progress transfers
// complete late; new ones queue behind the stall.
type DMAStall struct {
	VIC       int
	At, Stall sim.Time
}

// LinkFlap takes one leaf↔spine InfiniBand uplink (both directions) down for
// Down starting at Start.
type LinkFlap struct {
	Leaf, Spine int
	Start, Down sim.Time
}

// Plan is one complete fault scenario. The zero value (and a nil *Plan)
// injects nothing.
type Plan struct {
	// Seed roots every per-entity fault RNG stream (see EntityRNG). Two runs
	// with the same plan and the same cluster seed are bit-identical.
	Seed uint64

	// DropProb is the probability that a Data Vortex packet is lost on one
	// link traversal (cycle-accurate core) or, compounded over its flight
	// hops, per packet (fast model). Active only inside Window.
	DropProb float64
	// CorruptProb is the per-link-traversal probability of a payload bit
	// flip. Corrupt packets are discarded by the receiving VIC's CRC check
	// and counted — to the application they are indistinguishable from drops.
	CorruptProb float64
	// Window bounds when DropProb/CorruptProb apply.
	Window Window

	// DeadNodes lists scheduled switch-node failures (cycle-accurate engine
	// only; the fast model has no individual switching nodes).
	DeadNodes []DeadNode
	// DMAStalls lists scheduled VIC DMA-engine stalls.
	DMAStalls []DMAStall
	// IBFlaps lists scheduled InfiniBand uplink outages.
	IBFlaps []LinkFlap

	// FIFOCapacity, when > 0, overrides the VICs' surprise-FIFO capacity so
	// overflow loss can be provoked at realistic traffic volumes.
	FIFOCapacity int
}

// Active reports whether the plan injects any fault at all.
func (p *Plan) Active() bool {
	if p == nil {
		return false
	}
	return p.DropProb > 0 || p.CorruptProb > 0 || len(p.DeadNodes) > 0 ||
		len(p.DMAStalls) > 0 || len(p.IBFlaps) > 0 || p.FIFOCapacity > 0
}

// Validate checks the plan's invariants: probabilities in [0, 1], times
// non-negative, windows ordered, no cylinder-0 dead nodes, non-negative
// entity indices. A nil plan is valid.
func (p *Plan) Validate() error {
	if p == nil {
		return nil
	}
	if !(p.DropProb >= 0 && p.DropProb <= 1) {
		return fmt.Errorf("faultplan: DropProb %v outside [0,1]", p.DropProb)
	}
	if !(p.CorruptProb >= 0 && p.CorruptProb <= 1) {
		return fmt.Errorf("faultplan: CorruptProb %v outside [0,1]", p.CorruptProb)
	}
	if p.Window.Start < 0 || p.Window.End < 0 {
		return fmt.Errorf("faultplan: negative window %v..%v", p.Window.Start, p.Window.End)
	}
	if p.Window.End != 0 && p.Window.End <= p.Window.Start {
		return fmt.Errorf("faultplan: empty window %v..%v", p.Window.Start, p.Window.End)
	}
	for _, d := range p.DeadNodes {
		if d.Cyl < 1 || d.Height < 0 || d.Angle < 0 {
			return fmt.Errorf("faultplan: dead node (%d,%d,%d) invalid (cylinder must be >= 1)",
				d.Cyl, d.Height, d.Angle)
		}
		if d.Kill < 0 || d.Revive < 0 {
			return fmt.Errorf("faultplan: dead node (%d,%d,%d) has negative time", d.Cyl, d.Height, d.Angle)
		}
		if d.Revive != 0 && d.Revive <= d.Kill {
			return fmt.Errorf("faultplan: dead node (%d,%d,%d) revives at %v before kill %v",
				d.Cyl, d.Height, d.Angle, d.Revive, d.Kill)
		}
	}
	for _, s := range p.DMAStalls {
		if s.VIC < 0 || s.At < 0 || s.Stall <= 0 {
			return fmt.Errorf("faultplan: invalid DMA stall %+v", s)
		}
	}
	for _, f := range p.IBFlaps {
		if f.Leaf < 0 || f.Spine < 0 || f.Start < 0 || f.Down <= 0 {
			return fmt.Errorf("faultplan: invalid IB flap %+v", f)
		}
	}
	if p.FIFOCapacity < 0 {
		return fmt.Errorf("faultplan: negative FIFOCapacity %d", p.FIFOCapacity)
	}
	return nil
}

// EntityRNG derives the independent fault RNG stream for one named entity
// (e.g. "dvswitch-core", or "dvport" with the port number as index). The
// derivation hashes the entity name and index into the plan seed, so streams
// are stable across runs and independent of each other and of the cluster's
// simulation RNGs. The index multiplier deliberately avoids the SplitMix64
// golden increment (see sim.NewRNG).
func (p *Plan) EntityRNG(entity string, index int) *sim.RNG {
	h := uint64(1469598103934665603) // FNV-1a offset basis
	for i := 0; i < len(entity); i++ {
		h ^= uint64(entity[i])
		h *= 1099511628211
	}
	h ^= p.Seed + 0xbf58476d1ce4e5b9
	h += uint64(index) * 0xff51afd7ed558ccd
	return sim.NewRNG(h)
}
