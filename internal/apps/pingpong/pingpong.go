// Package pingpong implements the paper's first micro-benchmark (§V):
// fixed-length back-and-forth messaging between two nodes, measuring the
// network bandwidth visible to an application that needs round trips. The
// Data Vortex variants exercise the three host→network paths of Figure 3
// (direct write with and without pre-cached headers, DMA with pre-cached
// headers); the baseline is MPI over InfiniBand.
package pingpong

import (
	"repro/internal/apprt"
	"repro/internal/cluster"
	"repro/internal/comm"
	"repro/internal/sim"
	"repro/internal/vic"
)

// Mode selects the transfer configuration under test.
type Mode int

const (
	// DVWrNoCached: direct writes, header+payload from host memory.
	DVWrNoCached Mode = iota
	// DVWrCached: direct writes, headers pre-cached in VIC DV Memory.
	DVWrCached
	// DVDMACached: DMA from host with pre-cached headers.
	DVDMACached
	// MPIIB: MPI over InfiniBand.
	MPIIB
)

// String names the configuration as Figure 3 labels it.
func (m Mode) String() string {
	switch m {
	case DVWrNoCached:
		return "DWr/NoCached"
	case DVWrCached:
		return "DWr/Cached"
	case DVDMACached:
		return "DMA/Cached"
	case MPIIB:
		return "MPI"
	}
	return "unknown"
}

// PeakBandwidth returns the nominal peak payload bandwidth (bytes/s) of the
// network a mode runs on: 4.4 GB/s for Data Vortex, 6.8 GB/s for FDR IB.
func (m Mode) PeakBandwidth() float64 {
	if m == MPIIB {
		return 6.8e9
	}
	return 4.4e9
}

func (m Mode) sendMode() vic.SendMode {
	switch m {
	case DVWrNoCached:
		return vic.PIO
	case DVWrCached:
		return vic.PIOCached
	default:
		return vic.DMACached
	}
}

// net maps the mode onto the backend it exercises.
func (m Mode) net() comm.Net {
	if m == MPIIB {
		return comm.IB
	}
	return comm.DV
}

// Result is one measured configuration.
type Result struct {
	Mode  Mode
	Words int      // 64-bit words per message
	Iters int      // round trips measured
	RTT   sim.Time // mean round-trip time
	// Bandwidth is the one-way payload bandwidth in bytes/s, the quantity
	// Figure 3a plots.
	Bandwidth float64
	// Report is the cluster run report (fabric telemetry, and invariant
	// results when checking was enabled). Excluded from JSON so result
	// serializations predating the field are unchanged.
	Report *cluster.Report `json:"-"`
}

// PercentPeak returns the bandwidth as a percentage of the network's peak
// (Figure 3b).
func (r Result) PercentPeak() float64 { return 100 * r.Bandwidth / r.Mode.PeakBandwidth() }

// Params configures a run.
type Params struct {
	Words int // message length in 64-bit words
	Iters int // round trips
	Seed  uint64
	// Platform is the run wiring, handed whole to apprt.Execute. The
	// transfer is striped across its VICsPerNode rails (multi-rail Data
	// Vortex; the paper notes nodes carry "at least one" VIC).
	cluster.Platform
}

// Run measures one configuration on a two-node cluster.
func Run(mode Mode, par Params) Result {
	if par.Iters <= 0 {
		par.Iters = 100
	}
	if par.Words <= 0 {
		par.Words = 1
	}
	var total sim.Time
	rep := apprt.Execute(apprt.RunSpec{
		Net:      mode.net(),
		Nodes:    2,
		Seed:     par.Seed + 1,
		Platform: par.Platform,
	}, func(n *cluster.Node, be comm.Backend) sim.Time {
		var d sim.Time
		if mode == MPIIB {
			d = runMPI(n, be, par)
		} else {
			d = runDV(n, be, mode, par)
		}
		// Rank 0 observes full round trips; rank 1 finishes after its last
		// send is merely staged, so its span under-counts.
		if n.ID == 0 {
			total = d
		}
		return d
	})
	rtt := total / sim.Time(par.Iters)
	bw := float64(par.Words*8) / (rtt.Seconds() / 2)
	return Result{Mode: mode, Words: par.Words, Iters: par.Iters, RTT: rtt, Bandwidth: bw, Report: rep.Cluster}
}

// runDV plays ping-pong over the Data Vortex API. The message is split into
// chunks, each counted by its own pre-armed group counter, so the receiver's
// DMA pull of chunk i overlaps the arrival of chunk i+1 — the multi-buffered
// DMA overlap the paper credits for reaching 99.4% of network peak. Small
// messages skip the DMA engine and use direct reads.
func runDV(n *cluster.Node, be comm.Backend, mode Mode, par Params) sim.Time {
	rails := n.Rails
	e := be.Endpoint()
	// Identical symmetric allocation on every rail.
	regions := make([]uint32, len(rails))
	for r, re := range rails {
		regions[r] = re.Alloc(par.Words)
	}
	peer := 1 - e.Rank()
	msg := make([]uint64, par.Words)
	for i := range msg {
		msg[i] = n.RNG.Uint64()
	}
	// Chunking: one group counter per in-flight chunk, chunks striped
	// round-robin across the rails.
	chunk := 8192
	for (par.Words+chunk-1)/chunk > 48 {
		chunk *= 2
	}
	nChunks := (par.Words + chunk - 1) / chunk
	gcs := make([]int, nChunks)
	railOf := make([]int, nChunks)
	for i := range gcs {
		railOf[i] = i % len(rails)
		gcs[i] = rails[railOf[i]].AllocGC()
	}
	chunkLen := func(i int) int {
		l := par.Words - i*chunk
		if l > chunk {
			l = chunk
		}
		return l
	}
	armAll := func() {
		for i, gc := range gcs {
			rails[railOf[i]].ArmGC(gc, int64(chunkLen(i)))
		}
	}
	small := par.Words <= 32
	// One receive row for every iteration: rank 1 sends it back before its
	// next recv overwrites it.
	got := make([]uint64, par.Words)
	recv := func() []uint64 {
		for i, gc := range gcs {
			re := rails[railOf[i]]
			re.WaitGC(gc, sim.Forever)
			off := regions[railOf[i]] + uint32(i*chunk)
			row := got[i*chunk : i*chunk+chunkLen(i)]
			if small {
				re.V.PIOReadInto(re.Proc(), row, off)
			} else {
				re.ReadInto(row, off)
			}
		}
		armAll() // safe: the peer sends again only after our reply
		return got
	}
	send := func(sm vic.SendMode, data []uint64) {
		for i := range gcs {
			off := i * chunk
			rails[railOf[i]].Put(sm, peer, regions[railOf[i]]+uint32(off), gcs[i],
				data[off:off+chunkLen(i)])
		}
	}
	armAll()
	e.Barrier()
	t0 := n.P.Now()
	sm := mode.sendMode()
	for it := 0; it < par.Iters; it++ {
		if e.Rank() == 0 {
			send(sm, msg)
			recv()
		} else {
			send(sm, recv())
		}
	}
	end := n.P.Now() - t0
	e.Barrier()
	return end
}

func runMPI(n *cluster.Node, be comm.Backend, par Params) sim.Time {
	c := be.MPI()
	msg := make([]byte, par.Words*8)
	c.Barrier()
	t0 := n.P.Now()
	for it := 0; it < par.Iters; it++ {
		if c.Rank() == 0 {
			c.Send(1, 1, msg)
			c.Recv(1, 2)
		} else {
			data, _ := c.Recv(0, 1)
			c.Send(0, 2, data)
		}
	}
	end := n.P.Now() - t0
	c.Barrier()
	return end
}
