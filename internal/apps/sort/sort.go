// Package sort implements distributed sample sort — the deliberate
// CONTRAST case of the reproduction. The paper's conclusion states that
// "traditional applications that are regular or that can be 'regularized'
// through message destination aggregation show little to no performance
// improvements on the DataVortex network compared to MPI-over-Infiniband".
// Sample sort is exactly such a workload: after splitter selection every
// node ships one large, contiguous, destination-aggregated block to every
// other node — bulk bandwidth, InfiniBand's home turf. Both variants run
// the same algorithm; the interesting result is that the Data Vortex port
// does NOT win here.
package sort

import (
	gosort "sort"

	"repro/internal/apprt"
	"repro/internal/cluster"
	"repro/internal/comm"
	"repro/internal/dv"
	"repro/internal/mpi"
	"repro/internal/sim"
	"repro/internal/vic"
)

// oversample is the samples per node for splitter selection.
const oversample int = 32

// Params configures a run.
type Params struct {
	Nodes       int
	KeysPerNode int
	Seed        uint64
	// KeepKeys gathers the sorted output for validation.
	KeepKeys bool
	// Platform is the run wiring, handed whole to apprt.Execute.
	cluster.Platform
}

func (p *Params) defaults() {
	if p.KeysPerNode == 0 {
		p.KeysPerNode = 1 << 14
	}
	if p.Seed == 0 {
		p.Seed = 1
	}
}

// Result is one measurement.
type Result struct {
	Net     comm.Net
	Nodes   int
	Keys    int64
	Elapsed sim.Time
	// SortedRate is keys sorted per second (aggregate).
	// Keys holds each node's final run when KeepKeys is set.
	Output [][]uint64
	// Report is the cluster run report (fabric telemetry, and invariant
	// results when checking was enabled). Excluded from JSON so result
	// serializations predating the field are unchanged.
	Report *cluster.Report `json:"-"`
}

// SortedRate returns aggregate keys per second.
func (r Result) SortedRate() float64 { return float64(r.Keys) / r.Elapsed.Seconds() }

// inputKeys deterministically generates node i's keys. The seed multiplier
// must not be the SplitMix64 golden increment, or adjacent seeds would
// produce overlapping streams shifted by one draw.
func inputKeys(par Params, id int) []uint64 {
	rng := sim.NewRNG(par.Seed*0xd1342543de82ef95 + uint64(id)*131 + 3)
	keys := make([]uint64, par.KeysPerNode)
	for i := range keys {
		keys[i] = rng.Uint64()
	}
	return keys
}

// Run executes the benchmark.
func Run(net comm.Net, par Params) Result {
	par.defaults()
	res := Result{Net: net, Nodes: par.Nodes,
		Keys: int64(par.Nodes) * int64(par.KeysPerNode)}
	if par.KeepKeys {
		res.Output = make([][]uint64, par.Nodes)
	}
	rep := apprt.Execute(apprt.RunSpec{
		Net:      net,
		Nodes:    par.Nodes,
		Seed:     par.Seed,
		Platform: par.Platform,
	}, func(n *cluster.Node, be comm.Backend) sim.Time {
		elapsed, out := runNode(n, be, net, par)
		if par.KeepKeys {
			res.Output[n.ID] = out
		}
		return elapsed
	})
	res.Elapsed = rep.Elapsed
	res.Report = rep.Cluster
	return res
}

func runNode(n *cluster.Node, be comm.Backend, net comm.Net, par Params) (sim.Time, []uint64) {
	p := par.Nodes
	keys := inputKeys(par, n.ID)

	var ex sorter
	if net == comm.DV {
		ex = newDVSorter(n, be, par)
	} else {
		ex = &mpiSorter{n: n, be: be}
	}
	ex.barrier()
	t0 := n.P.Now()

	// 1. Local sort and sampling.
	gosort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	n.Ops(int64(par.KeysPerNode) * 5) // ~n log n comparisons at small-op cost
	samples := make([]uint64, oversample)
	for i := range samples {
		samples[i] = keys[i*len(keys)/oversample]
	}

	// 2. Splitters: allgather samples, pick P-1 quantiles.
	all := ex.allGather(samples)
	gosort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	splitters := make([]uint64, p-1)
	for i := range splitters {
		splitters[i] = all[(i+1)*len(all)/p]
	}

	// 3. Partition: keys are sorted, so buckets are contiguous runs —
	// the "destination aggregation" that regularises the exchange.
	buckets := make([][]uint64, p)
	lo := 0
	for d := 0; d < p; d++ {
		hi := len(keys)
		if d < p-1 {
			hi = gosort.Search(len(keys), func(i int) bool { return keys[i] >= splitters[d] })
		}
		buckets[d] = keys[lo:hi]
		lo = hi
	}
	n.Ops(int64(p) * 10)

	// 4. All-to-all of large contiguous blocks.
	recv := ex.exchange(buckets)

	// 5. Merge received runs (final local sort).
	var out []uint64
	for _, r := range recv {
		out = append(out, r...)
	}
	gosort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	n.Ops(int64(len(out)) * 5)

	elapsed := n.P.Now() - t0
	ex.barrier()
	return elapsed, out
}

// sorter hides the two communication implementations.
type sorter interface {
	allGather(vals []uint64) []uint64
	exchange(buckets [][]uint64) [][]uint64
	barrier()
}

// ---------------------------------------------------------------------------
// MPI

type mpiSorter struct {
	n  *cluster.Node
	be comm.Backend
}

func (s *mpiSorter) allGather(vals []uint64) []uint64 {
	var out, part []uint64
	for _, b := range s.be.MPI().Allgather(mpi.AppendUint64s(nil, vals)) {
		part = mpi.Uint64sInto(part, b)
		out = append(out, part...)
	}
	return out
}

func (s *mpiSorter) exchange(buckets [][]uint64) [][]uint64 {
	send := make([][]byte, len(buckets))
	total := 0
	for d, b := range buckets {
		send[d] = mpi.AppendUint64s(nil, b)
		total += len(b)
	}
	s.n.Compute(sim.BytesAt(total*8, 8e9)) // pack
	recvB := s.be.MPI().Alltoall(send)
	out := make([][]uint64, len(recvB))
	for i, b := range recvB {
		out[i] = mpi.Uint64sInto(nil, b) // the runs outlive the barrier that follows; recvB does not
	}
	return out
}

func (s *mpiSorter) barrier() { s.be.Barrier() }

// ---------------------------------------------------------------------------
// Data Vortex: counted bulk puts at exchanged offsets

type dvSorter struct {
	n      *cluster.Node
	e      *dv.Endpoint
	coll   *dv.Collective
	region uint32
	gc     int
	cap    int
}

func newDVSorter(n *cluster.Node, be comm.Backend, par Params) *dvSorter {
	e := be.Endpoint()
	s := &dvSorter{n: n, e: e}
	// Worst-case incoming: all keys of all peers (bounded by total keys).
	s.cap = par.KeysPerNode * par.Nodes
	s.region = e.Alloc(s.cap)
	s.gc = e.AllocGC()
	s.coll = dv.NewCollective(e, par.Nodes)
	e.Barrier()
	return s
}

func (s *dvSorter) allGather(vals []uint64) []uint64 {
	// The collective has fixed width nodes; pad/segment as needed.
	out := make([]uint64, 0, len(vals)*s.e.Size())
	width := s.e.Size()
	for base := 0; base < len(vals); base += width {
		chunk := make([]uint64, width)
		copy(chunk, vals[base:min(base+width, len(vals))])
		got := s.coll.AllGather(chunk)
		// got is [src][width]; flatten preserving source order and
		// clipping the padding of the final segment.
		take := min(width, len(vals)-base)
		for src := 0; src < s.e.Size(); src++ {
			out = append(out, got[src*width:src*width+take]...)
		}
	}
	return out
}

func (s *dvSorter) exchange(buckets [][]uint64) [][]uint64 {
	e := s.e
	p := e.Size()
	// Exchange bucket sizes so every node can lay out its incoming region
	// (per-source offsets) and arm the counter with the exact word count.
	sizes := make([]uint64, p)
	for d, b := range buckets {
		sizes[d] = uint64(len(b))
	}
	matrix := s.coll.AllGather(sizes) // [src][dst]
	me := e.Rank()
	offs := make([]int, p+1)
	for src := 0; src < p; src++ {
		offs[src+1] = offs[src] + int(matrix[src*p+me])
	}
	expected := int64(offs[p]) - int64(sizes[me]) // remote words only
	e.ArmGC(s.gc, expected)
	e.Barrier() // everyone armed
	// Bulk puts: one counted transfer per destination.
	for d, b := range buckets {
		if d == me {
			continue
		}
		if len(b) == 0 {
			continue
		}
		// Destination offset for MY block at d: sum of matrix rows < me
		// into column d.
		dOff := 0
		for src := 0; src < me; src++ {
			dOff += int(matrix[src*p+d])
		}
		s.n.Compute(sim.BytesAt(len(b)*8, 8e9)) // stage payloads
		e.Put(vic.DMACached, d, s.region+uint32(dOff), s.gc, b)
	}
	e.WaitGC(s.gc, sim.Forever)
	raw := e.Read(s.region, offs[p])
	out := make([][]uint64, p)
	for src := 0; src < p; src++ {
		if src == me {
			out[src] = buckets[me]
			continue
		}
		out[src] = raw[offs[src]:offs[src+1]]
	}
	return out
}

func (s *dvSorter) barrier() { s.e.Barrier() }
