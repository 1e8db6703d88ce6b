package ib

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/sim"
)

func TestTransferArrives(t *testing.T) {
	k := sim.NewKernel()
	f := New(k, 4, DefaultParams())
	var arrived sim.Time
	k.Spawn("s", func(p *sim.Proc) {
		f.Transfer(0, 1, 1024, func() { arrived = k.Now() })
	})
	k.Run()
	if arrived == 0 {
		t.Fatal("no arrival")
	}
	st := f.FabricStats()
	if st.Messages != 1 || st.Bytes != 1024 {
		t.Fatalf("stats %+v", st)
	}
}

// TestNodeCap: past MaxNodes neither ForNodes nor New builds a fabric; both
// panic naming the cap (RunSpec.Validate turns it into a ConfigError first).
func TestNodeCap(t *testing.T) {
	for name, build := range map[string]func(){
		"ForNodes":           func() { ForNodes(MaxNodes + 1) },
		"ForNodes past 2^62": func() { ForNodes(1<<62 + 1) },
		"New":                func() { New(sim.NewKernel(), MaxNodes+1, DefaultParams()) },
	} {
		func() {
			defer func() {
				if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "MaxNodes") {
					t.Errorf("%s past the cap: recovered %v, want a panic naming MaxNodes", name, r)
				}
			}()
			build()
		}()
	}
}

// TestForNodesFullBisection pins the scaled fat tree: LeafSize = Spines =
// the smallest power of two whose square covers n (never oversubscribed),
// timing calibration untouched, and the resulting fabric routes traffic.
func TestForNodesFullBisection(t *testing.T) {
	cases := []struct{ n, k int }{
		{1, 1}, {4, 2}, {8, 4}, {16, 4}, {32, 8}, {64, 8},
		{100, 16}, {256, 16}, {1024, 32}, {MaxNodes, 1024},
	}
	def := DefaultParams()
	for _, cse := range cases {
		p := ForNodes(cse.n)
		if p.LeafSize != cse.k || p.Spines != cse.k {
			t.Errorf("ForNodes(%d) = leaf %d/spines %d, want %d/%d",
				cse.n, p.LeafSize, p.Spines, cse.k, cse.k)
		}
		if p.LeafSize != p.Spines {
			t.Errorf("ForNodes(%d) oversubscribed: %d nodes/leaf, %d uplinks",
				cse.n, p.LeafSize, p.Spines)
		}
		if p.LinkBW != def.LinkBW || p.StreamBW != def.StreamBW ||
			p.HopLatency != def.HopLatency || p.NICGap != def.NICGap ||
			p.LinkMsgGap != def.LinkMsgGap {
			t.Errorf("ForNodes(%d) changed timing calibration: %+v", cse.n, p)
		}
	}
	// A scaled fabric must actually deliver cross-leaf traffic at size.
	k := sim.NewKernel()
	f := New(k, 256, ForNodes(256))
	arrived := 0
	k.Spawn("s", func(p *sim.Proc) {
		for dst := 1; dst < 256; dst += 17 {
			f.Transfer(0, dst, 64, func() { arrived++ })
		}
	})
	k.Run()
	if arrived != 15 {
		t.Fatalf("arrived %d of 15", arrived)
	}
}

func TestIntraVsInterLeafLatency(t *testing.T) {
	lat := func(dst int) sim.Time {
		k := sim.NewKernel()
		f := New(k, 32, DefaultParams())
		var arrived sim.Time
		k.Spawn("s", func(p *sim.Proc) {
			f.Transfer(0, dst, 8, func() { arrived = k.Now() })
		})
		k.Run()
		return arrived
	}
	intra, inter := lat(1), lat(20)
	if inter <= intra {
		t.Fatalf("inter-leaf (%v) should cost more than intra-leaf (%v)", inter, intra)
	}
}

func TestInterLeafCounted(t *testing.T) {
	k := sim.NewKernel()
	f := New(k, 32, DefaultParams())
	k.Spawn("s", func(p *sim.Proc) {
		f.Transfer(0, 1, 8, func() {})  // same leaf
		f.Transfer(0, 31, 8, func() {}) // crosses spine
	})
	k.Run()
	if got := f.FabricStats().InterLeaf; got != 1 {
		t.Fatalf("InterLeaf = %d, want 1", got)
	}
}

func TestUplinkCongestion(t *testing.T) {
	// Many nodes of one leaf blasting another leaf share oversubscribed
	// uplinks: per-message delivery must degrade versus a single sender.
	arrivalSpan := func(senders int) sim.Time {
		k := sim.NewKernel()
		f := New(k, 32, DefaultParams())
		var last sim.Time
		const msgs = 200
		for s := 0; s < senders; s++ {
			s := s
			k.Spawn("s", func(p *sim.Proc) {
				for i := 0; i < msgs; i++ {
					f.Transfer(s, 16+s, 64, func() { // 16+s: always inter-leaf
						if k.Now() > last {
							last = k.Now()
						}
					})
					p.Wait(10 * sim.Nanosecond)
				}
			})
		}
		k.Run()
		return last
	}
	one, eight := arrivalSpan(1), arrivalSpan(8)
	if eight < 2*one {
		t.Fatalf("uplink congestion absent: 1 sender %v, 8 senders %v", one, eight)
	}
}

func TestLoopbackStaysLocal(t *testing.T) {
	k := sim.NewKernel()
	f := New(k, 8, DefaultParams())
	var arrived sim.Time
	k.Spawn("s", func(p *sim.Proc) {
		f.Transfer(3, 3, 8, func() { arrived = k.Now() })
	})
	k.Run()
	if arrived == 0 || arrived > sim.Microsecond {
		t.Fatalf("loopback arrival %v", arrived)
	}
	if f.FabricStats().InterLeaf != 0 {
		t.Fatal("loopback crossed leaves")
	}
}

func TestOutOfRangePanics(t *testing.T) {
	k := sim.NewKernel()
	f := New(k, 4, DefaultParams())
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	f.Transfer(0, 9, 8, func() {})
}

func TestAdaptiveRoutingBalancesUplinks(t *testing.T) {
	// One leaf blasting another: static routing serialises on one spine,
	// adaptive spreads over both and finishes sooner.
	finish := func(adaptive bool) sim.Time {
		k := sim.NewKernel()
		par := DefaultParams()
		par.Adaptive = adaptive
		f := New(k, 32, par)
		var last sim.Time
		k.Spawn("s", func(p *sim.Proc) {
			for i := 0; i < 400; i++ {
				f.Transfer(i%8, 16+i%8, 4096, func() {
					if k.Now() > last {
						last = k.Now()
					}
				})
			}
		})
		k.Run()
		return last
	}
	static, adaptive := finish(false), finish(true)
	if adaptive >= static {
		t.Fatalf("adaptive (%v) should beat static (%v) on a one-leaf blast", adaptive, static)
	}
}
