package faultplan

import (
	"math"
	"testing"

	"repro/internal/sim"
)

func samplePlan() *Plan {
	return &Plan{
		Seed:        42,
		DropProb:    1e-3,
		CorruptProb: 2.5e-4,
		Window:      Window{Start: 5 * sim.Microsecond, End: 80 * sim.Microsecond},
		DeadNodes: []DeadNode{
			{Cyl: 1, Height: 3, Angle: 2, Kill: 10 * sim.Microsecond, Revive: 40 * sim.Microsecond},
			{Cyl: 2, Height: 0, Angle: 1, Kill: 0},
		},
		DMAStalls:    []DMAStall{{VIC: 3, At: 12 * sim.Microsecond, Stall: 7 * sim.Microsecond}},
		IBFlaps:      []LinkFlap{{Leaf: 0, Spine: 1, Start: 2 * sim.Microsecond, Down: 30 * sim.Microsecond}},
		FIFOCapacity: 256,
	}
}

func TestValidateRejects(t *testing.T) {
	cases := []struct {
		name string
		p    Plan
	}{
		{"drop>1", Plan{DropProb: 1.5}},
		{"drop NaN", Plan{DropProb: math.NaN()}},
		{"negative corrupt", Plan{CorruptProb: -0.1}},
		{"inverted window", Plan{Window: Window{Start: 10, End: 5}}},
		{"cylinder-0 dead node", Plan{DeadNodes: []DeadNode{{Cyl: 0}}}},
		{"revive before kill", Plan{DeadNodes: []DeadNode{{Cyl: 1, Kill: 10, Revive: 5}}}},
		{"zero-length stall", Plan{DMAStalls: []DMAStall{{VIC: 0, Stall: 0}}}},
		{"negative flap", Plan{IBFlaps: []LinkFlap{{Leaf: -1, Down: 1}}}},
		{"negative fifocap", Plan{FIFOCapacity: -1}},
	}
	for _, c := range cases {
		if err := c.p.Validate(); err == nil {
			t.Errorf("%s: Validate accepted %+v", c.name, c.p)
		}
	}
}

func TestWindowContains(t *testing.T) {
	w := Window{Start: 10, End: 20}
	for _, c := range []struct {
		t    sim.Time
		want bool
	}{{9, false}, {10, true}, {19, true}, {20, false}} {
		if got := w.Contains(c.t); got != c.want {
			t.Errorf("Contains(%d) = %v, want %v", c.t, got, c.want)
		}
	}
	open := Window{Start: 5}
	if !open.Contains(1 << 50) {
		t.Error("open-ended window should contain far-future times")
	}
	if open.Contains(4) {
		t.Error("open-ended window should respect Start")
	}
}

func TestEntityRNGStreams(t *testing.T) {
	p := samplePlan()
	a1 := p.EntityRNG("dvport", 0)
	a2 := p.EntityRNG("dvport", 0)
	b := p.EntityRNG("dvport", 1)
	c := p.EntityRNG("dvswitch-core", 0)
	if a1.Uint64() != a2.Uint64() {
		t.Error("same entity+index should give identical streams")
	}
	a1 = p.EntityRNG("dvport", 0)
	if a1.Uint64() == b.Uint64() || a1.Uint64() == c.Uint64() {
		t.Error("distinct entities should give distinct streams")
	}
	q := samplePlan()
	q.Seed++
	if p.EntityRNG("dvport", 0).Uint64() == q.EntityRNG("dvport", 0).Uint64() {
		t.Error("different plan seeds should give distinct streams")
	}
}
