package bfs

import (
	"math"

	"repro/internal/cluster"
	"repro/internal/comm"
	"repro/internal/dv"
	"repro/internal/mpi"
	"repro/internal/sim"
	"repro/internal/vic"
)

// packVisit encodes a visit message (destination vertex, proposed parent) in
// one 64-bit payload; Scale is limited to 31 bits per endpoint.
func packVisit(v, u int64) uint64       { return uint64(v)<<32 | uint64(u) }
func unpackVisit(w uint64) (v, u int64) { return int64(w >> 32), int64(w & 0xFFFFFFFF) }

// visitLocal attempts to claim vertex v (global id) with parent u on the
// node whose first vertex is lo; it reports whether v was newly visited.
func visitLocal(lo int64, parent []int64, v, u int64) bool {
	li := v - lo
	if parent[li] == -1 {
		parent[li] = u
		return true
	}
	return false
}

// searchMPI is the level-synchronous Graph500 BFS over MPI: visit messages
// are bucketed by owner and exchanged with one all-to-all per level. send
// holds the node's per-owner blocks, visits appended one word at a time;
// it is kept across levels and searches and reset, not reallocated: Alltoall
// only reads what it is given and is done with it when it returns. What it
// returns is mpi's until the next collective (the Allreduce below), so the
// visits are read in place before that.
func searchMPI(n *cluster.Node, be comm.Backend, g *graph, root int64, parent []int64, send [][]byte) Search {
	c := be.MPI()
	var frontier, next []int64 // local indices
	c.Barrier()
	t0 := n.P.Now()
	if owner(root, g.perNode) == n.ID {
		parent[root-g.lo] = root
		frontier = append(frontier, root-g.lo)
	}
	var edgesScanned, visited int64
	if len(frontier) > 0 {
		visited = 1
	}
	for {
		for q := range send {
			send[q] = send[q][:0]
		}
		next = next[:0]
		localVisits := 0
		for _, lu := range frontier {
			u := g.lo + lu
			for _, v := range g.neighbors(lu) {
				edgesScanned++
				q := owner(v, g.perNode)
				if q == n.ID {
					localVisits++
					if visitLocal(g.lo, parent, v, u) {
						next = append(next, v-g.lo)
						visited++
					}
				} else {
					send[q] = mpi.AppendUint64(send[q], packVisit(v, u))
				}
			}
		}
		n.Ops(edgesScannedThisLevel(frontier, g) + int64(localVisits))
		got := 0
		for src, data := range c.Alltoall(send) {
			if src == n.ID {
				continue
			}
			for i := 0; i < len(data)/8; i++ {
				v, u := unpackVisit(mpi.Uint64At(data, i))
				got++
				if visitLocal(g.lo, parent, v, u) {
					next = append(next, v-g.lo)
					visited++
				}
			}
		}
		n.Ops(int64(got))
		frontier, next = next, frontier
		total := c.Allreduce([]float64{float64(len(frontier))}, mpi.Sum)
		if total[0] == 0 {
			break
		}
	}
	sums := c.Allreduce([]float64{float64(edgesScanned), float64(visited)}, mpi.Sum)
	elapsed := n.P.Now() - t0
	c.Barrier()
	return Search{Edges: int64(sums[0]), Visited: int64(sums[1]), Elapsed: elapsed}
}

// dvState holds the per-run Data Vortex BFS communication state.
type dvState struct {
	nodes   int
	cntBase uint32 // per-source sent-count slots
	gcCnt   int
	coll    *dv.Collective
}

func newDVState(n *cluster.Node, be comm.Backend, nodes int) *dvState {
	e := be.Endpoint()
	st := &dvState{
		nodes:   nodes,
		cntBase: e.Alloc(nodes),
		gcCnt:   e.AllocGC(),
		coll:    dv.NewCollective(e, 1),
	}
	e.ArmGC(st.gcCnt, int64(nodes-1))
	e.Barrier()
	return st
}

// searchDV is the Data Vortex BFS: every visit is one fine-grained packet to
// the owner's surprise FIFO, batched across PCIe at the source, drained
// opportunistically at the receiver, with a counted flush per level.
func searchDV(n *cluster.Node, be comm.Backend, st *dvState, g *graph, root int64, parent []int64) Search {
	e := be.Endpoint()
	p := st.nodes
	var frontier []int64
	e.Barrier()
	t0 := n.P.Now()
	if owner(root, g.perNode) == n.ID {
		parent[root-g.lo] = root
		frontier = append(frontier, root-g.lo)
	}
	var edgesScanned, visited int64
	if len(frontier) > 0 {
		visited = 1
	}
	var next []int64
	sentTo := make([]int64, p)
	words := make([]vic.Word, 0, 4096)
	cnt := make([]vic.Word, 0, p-1)
	var drained, expected int
	lo := g.lo // copied so that the closures, which the node keeps, leave g on the stack
	visit := func(w uint64) {
		drained++
		v, u := unpackVisit(w)
		if visitLocal(lo, parent, v, u) {
			next = append(next, v-lo)
			visited++
		}
	}
	// drain takes what has arrived, up to the level's expected count: one
	// small operation per visit.
	drain := func() (int64, int64, bool) {
		if drained >= expected {
			return 0, 0, false
		}
		w, ok := e.TryPopFIFO()
		if ok {
			visit(w)
		}
		return 1, 0, ok
	}
	for {
		next = next[:0]
		drained, expected = 0, math.MaxInt // known once the level's counts are in
		clear(sentTo)
		words = words[:0]
		localVisits := 0
		for _, lu := range frontier {
			u := g.lo + lu
			for _, v := range g.neighbors(lu) {
				edgesScanned++
				q := owner(v, g.perNode)
				if q == n.ID {
					localVisits++
					if visitLocal(g.lo, parent, v, u) {
						next = append(next, v-g.lo)
						visited++
					}
					continue
				}
				words = append(words, vic.Word{Dst: q, Op: vic.OpFIFO, GC: vic.NoGC, Val: packVisit(v, u)})
				sentTo[q]++
				if len(words) == 4096 {
					e.Scatter(vic.DMACached, words)
					words = words[:0]
					n.WorkEach(drain)
				}
			}
		}
		e.Scatter(vic.DMACached, words)
		n.Ops(edgesScannedThisLevel(frontier, g) + int64(localVisits))
		// Counted flush: exchange per-destination send counts, then drain
		// to the exact expected total.
		cnt = cnt[:0]
		for d := 0; d < p; d++ {
			if d != n.ID {
				cnt = append(cnt, vic.Word{Dst: d, Op: vic.OpWrite, GC: st.gcCnt,
					Addr: st.cntBase + uint32(n.ID), Val: uint64(sentTo[d])})
			}
		}
		e.Scatter(vic.PIOCached, cnt)
		e.WaitGC(st.gcCnt, sim.Forever)
		expected = 0
		for src, w := range e.Read(st.cntBase, p) {
			if src != n.ID {
				expected += int(w)
			}
		}
		for {
			n.WorkEach(drain)
			if drained >= expected {
				break
			}
			w, _ := e.PopFIFO(sim.Forever) // the FIFO is empty: wait for a word
			visit(w)
			n.Ops(1)
		}
		e.ArmGC(st.gcCnt, int64(p-1)) // re-arm; fenced by allGather's barrier
		frontier = append(frontier[:0], next...)
		if st.coll.AllReduceSum(uint64(len(frontier))) == 0 {
			break
		}
	}
	globalEdges := int64(st.coll.AllReduceSum(uint64(edgesScanned)))
	globalVisited := int64(st.coll.AllReduceSum(uint64(visited)))
	elapsed := n.P.Now() - t0
	e.Barrier()
	return Search{Edges: globalEdges, Visited: globalVisited, Elapsed: elapsed}
}

// edgesScannedThisLevel returns the software cost units for scanning the
// frontier's adjacency lists.
func edgesScannedThisLevel(frontier []int64, g *graph) int64 {
	var c int64
	for _, lu := range frontier {
		c += int64(g.adjOff[lu+1] - g.adjOff[lu])
	}
	return c
}
