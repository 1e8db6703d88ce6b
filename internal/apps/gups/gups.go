// Package gups implements the Giga-Updates-Per-Second benchmark (§VI):
// random read-modify-write (XOR) updates against a table distributed over
// all nodes. Any node may update any element, transactions are 8 bytes, and
// the HPCC rules cap buffering at 1024 updates — precisely the traffic that
// cannot be aggregated by destination, which the paper identifies as the
// Data Vortex sweet spot (Figures 5 and 6).
//
// The MPI variant follows the HPCC algorithm: rounds of up to 1024 updates,
// bucketed by owner and exchanged with an all-to-all. The Data Vortex
// variant aggregates at the source only: each round's updates — destined for
// many different nodes — cross PCIe in one DMA batch of fine-grained packets
// addressed to the owners' surprise FIFOs, and every node drains its own
// FIFO concurrently with sending.
package gups

import (
	"fmt"
	"math"
	"math/bits"

	"repro/internal/apprt"
	"repro/internal/cluster"
	"repro/internal/comm"
	"repro/internal/mpi"
	"repro/internal/sim"
	"repro/internal/vic"
)

// Params configures a run.
type Params struct {
	Nodes          int
	TableWordsNode int // table words per node (power of two)
	UpdatesPerNode int
	Seed           uint64
	BatchWords     int // HPCC buffering cap (default 1024)
	// KeepTables retains the final table fragments for validation.
	KeepTables bool
	// Platform is the run wiring, handed whole to apprt.Execute.
	cluster.Platform

	// Reliable routes the DV variant through the reliable-delivery layer
	// (mailbox writes via ReliableScatter, ReliableBarrier between rounds),
	// producing validated-correct tables even under packet loss.
	Reliable bool
	// WaitTimeout, when > 0, bounds the unprotected DV variant's completion
	// waits so a run under packet loss terminates and reports lost updates
	// instead of hanging on a counter that will never reach zero.
	WaitTimeout sim.Time
}

func (p *Params) defaults() {
	if p.TableWordsNode == 0 {
		p.TableWordsNode = 1 << 16
	}
	if p.UpdatesPerNode == 0 {
		p.UpdatesPerNode = 1 << 14
	}
	if p.BatchWords == 0 {
		p.BatchWords = 1024
	}
	if p.Seed == 0 {
		p.Seed = 1
	}
}

// sizeErr reports a size no table or update stream can have (nil when the
// sizes are usable; zeros select the defaults). Run panics with it; the
// registered runner returns it.
func (p Params) sizeErr() error {
	for _, f := range []struct {
		name string
		v    int
	}{{"TableWordsNode", p.TableWordsNode}, {"UpdatesPerNode", p.UpdatesPerNode}, {"BatchWords", p.BatchWords}} {
		if f.v < 0 {
			return fmt.Errorf("gups: %s is negative (%d)", f.name, f.v)
		}
	}
	if w := p.TableWordsNode; w&(w-1) != 0 {
		return fmt.Errorf("gups: TableWordsNode is not a power of two (%d)", w)
	}
	return nil
}

// Result is one measurement.
type Result struct {
	Net     comm.Net
	Nodes   int
	Updates int64 // total updates applied
	Elapsed sim.Time
	// Tables holds each node's final fragment when KeepTables was set.
	Tables [][]uint64

	// Lost counts updates that were sent to a remote owner but never applied
	// (unprotected DV path under faults; always 0 on the reliable path).
	Lost int64
	// Errors counts reliable-path operations that exhausted the retry budget.
	Errors int
	// Report is the cluster run report (drop, corruption, and reliability
	// telemetry).
	Report *cluster.Report
}

// MUPSPerNode returns millions of updates per second per processing element
// (Figure 6a).
func (r Result) MUPSPerNode() float64 {
	return float64(r.Updates) / float64(r.Nodes) / r.Elapsed.Seconds() / 1e6
}

// MUPS returns the aggregate update rate in millions per second (Figure 6b).
func (r Result) MUPS() float64 {
	return float64(r.Updates) / r.Elapsed.Seconds() / 1e6
}

// updateStream deterministically generates node i's update values.
func updateStream(seed uint64, node int) *sim.RNG {
	return sim.NewRNG(seed*0xff51afd7ed558ccd + uint64(node)*0x100000001b3 + 7)
}

// ownerMap maps an update value a to its (node, local index): a mod the
// table's nodes × wordsPerNode words, split into node and index. The
// divisors are folded once per run. wordsPerNode is a power of two 2^shift,
// so the index is a's low shift bits and the node is a>>shift mod nodes,
// which a multiply by a precomputed 128-bit reciprocal reduces exactly for
// every 64-bit a (Lemire, Kaser and Kurz, "Faster Remainder by Direct
// Computation", 2019: with c = ceil(2^128/d), n mod d is the top 128 bits of
// (c·n mod 2^128)·d for every n < 2^64).
type ownerMap struct {
	shift    uint
	mask     uint64
	nodes    uint64
	cHi, cLo uint64 // ceil(2^128 / nodes) mod 2^128 (0 for one node)
}

// newOwnerMap folds the divisors of a table of nodes × wordsPerNode words;
// wordsPerNode must be a power of two (Params.sizeErr).
func newOwnerMap(nodes, wordsPerNode int) ownerMap {
	if nodes < 1 || wordsPerNode < 1 || wordsPerNode&(wordsPerNode-1) != 0 {
		panic(fmt.Sprintf("gups: no owner map for %d nodes × %d words", nodes, wordsPerNode))
	}
	m := ownerMap{shift: uint(bits.TrailingZeros(uint(wordsPerNode))), mask: uint64(wordsPerNode - 1), nodes: uint64(nodes)}
	if nodes > 1 {
		// ceil(2^128/d) = floor((2^128-1)/d) + 1 for d > 1.
		q1, r := bits.Div64(0, math.MaxUint64, m.nodes)
		q0, _ := bits.Div64(r, math.MaxUint64, m.nodes)
		var carry uint64
		m.cLo, carry = bits.Add64(q0, 1, 0)
		m.cHi = q1 + carry
	}
	return m
}

// owner returns a's (node, local index).
func (m ownerMap) owner(a uint64) (int, int) {
	n := a >> m.shift
	hi, lo := bits.Mul64(m.cLo, n)
	hi += m.cHi * n // c·n mod 2^128 is (hi, lo)
	top, _ := bits.Mul64(lo, m.nodes)
	h, l := bits.Mul64(hi, m.nodes)
	_, carry := bits.Add64(top, l, 0)
	return int(h + carry), int(a & m.mask)
}

// Verify replays the update streams serially on the host and counts the words
// of the gathered tables that differ from the correct answer — zero for a
// valid run. The run must have set KeepTables.
func Verify(par Params, r Result) int {
	par.defaults()
	want := make([]uint64, par.Nodes*par.TableWordsNode)
	om := newOwnerMap(par.Nodes, par.TableWordsNode)
	for nd := 0; nd < par.Nodes; nd++ {
		rng := updateStream(par.Seed, nd)
		for i := 0; i < par.UpdatesPerNode; i++ {
			a := rng.Uint64()
			o, li := om.owner(a)
			want[o*par.TableWordsNode+li] ^= a
		}
	}
	bad := 0
	for nd, tab := range r.Tables {
		for i, v := range tab {
			if v != want[nd*par.TableWordsNode+i] {
				bad++
			}
		}
	}
	return bad
}

// Run executes the benchmark and returns the measurement.
func Run(net comm.Net, par Params) Result {
	par.defaults()
	if err := par.sizeErr(); err != nil {
		panic(err.Error())
	}
	res := Result{Net: net, Nodes: par.Nodes, Updates: int64(par.Nodes) * int64(par.UpdatesPerNode)}
	if par.KeepTables {
		res.Tables = make([][]uint64, par.Nodes)
	}
	var sentRemote, drained int64
	rep := apprt.Execute(apprt.RunSpec{
		Net:      net,
		Nodes:    par.Nodes,
		Seed:     par.Seed,
		Platform: par.Platform,
	}, func(n *cluster.Node, be comm.Backend) sim.Time {
		table := make([]uint64, par.TableWordsNode)
		var d sim.Time
		switch {
		case net != comm.DV:
			d = runMPI(n, be, par, table)
		case par.Reliable:
			var errs int
			d, errs = runDVReliable(n, be, par, table)
			res.Errors += errs
		default:
			var sent, got int64
			d, sent, got = runDV(n, be, par, table)
			sentRemote += sent
			drained += got
		}
		if par.KeepTables {
			res.Tables[n.ID] = table
		}
		return d
	})
	res.Elapsed = rep.Elapsed
	res.Report = rep.Cluster
	res.Lost = sentRemote - drained
	return res
}

// runMPI is the HPCC-style implementation: rounds of ≤1024 updates bucketed
// by destination and exchanged with Alltoall. The buckets are the send
// blocks themselves, words appended as they are generated and read back in
// place on the other side (mpi's one-word forms); they keep their storage from round
// to round, which Alltoall allows because it only reads them.
func runMPI(n *cluster.Node, be comm.Backend, par Params, table []uint64) sim.Time {
	c := be.MPI()
	rng := updateStream(par.Seed, n.ID)
	om := newOwnerMap(par.Nodes, par.TableWordsNode)
	rounds := (par.UpdatesPerNode + par.BatchWords - 1) / par.BatchWords
	send := make([][]byte, par.Nodes)
	c.Barrier()
	t0 := n.P.Now()
	left := par.UpdatesPerNode
	for r := 0; r < rounds; r++ {
		b := par.BatchWords
		if b > left {
			b = left
		}
		left -= b
		for d := range send {
			send[d] = send[d][:0]
		}
		localApplied := 0
		for i := 0; i < b; i++ {
			a := rng.Uint64()
			dst, li := om.owner(a)
			if dst == n.ID {
				table[li] ^= a
				localApplied++
			} else {
				send[dst] = mpi.AppendUint64(send[dst], a)
			}
		}
		n.Work(int64(2*b), int64(localApplied)) // generation + bucketing, local applies
		applied := 0
		for src, data := range c.Alltoall(send) {
			if src == n.ID {
				continue
			}
			for i := 0; i < len(data)/8; i++ {
				a := mpi.Uint64At(data, i)
				_, li := om.owner(a)
				table[li] ^= a
				applied++
			}
		}
		n.Work(int64(applied), int64(applied))
	}
	c.Barrier()
	return n.P.Now() - t0
}

// runDV aggregates at the source: every batch crosses PCIe as one DMA of
// FIFO-addressed packets, the receiver drains its surprise FIFO between
// batches, and a counted final exchange established how many updates each
// node must still drain. It returns the elapsed time plus the node's remote
// send and drain tallies; under par.WaitTimeout the completion waits are
// bounded, so a lossy fabric shows up as sent > drained (lost updates)
// instead of a hang.
func runDV(n *cluster.Node, be comm.Backend, par Params, table []uint64) (sim.Time, int64, int64) {
	e := be.Endpoint()
	wait := sim.Forever
	if par.WaitTimeout > 0 {
		wait = par.WaitTimeout
	}
	countBase := e.Alloc(par.Nodes) // per-source sent counters
	countGC := e.AllocGC()
	e.ArmGC(countGC, int64(par.Nodes-1))
	rng := updateStream(par.Seed, n.ID)
	e.Barrier()
	t0 := n.P.Now()

	drained := int64(0)
	expected := int64(math.MaxInt64) // known once the counts are in
	// Built before the closures, which the node keeps, so that they capture
	// it by value and leave par on the stack.
	om := newOwnerMap(par.Nodes, par.TableWordsNode)
	apply := func(a uint64) {
		_, li := om.owner(a)
		table[li] ^= a
		drained++
	}
	// drain takes what has arrived, up to the expected count: one decode
	// and apply per word.
	drain := func() (int64, int64, bool) {
		if drained >= expected {
			return 0, 0, false
		}
		a, ok := e.TryPopFIFO()
		if ok {
			apply(a)
		}
		return 1, 1, ok
	}

	sentTo := make([]int64, par.Nodes)
	words := make([]vic.Word, 0, par.BatchWords)
	left := par.UpdatesPerNode
	for left > 0 {
		b := par.BatchWords
		if b > left {
			b = left
		}
		left -= b
		words = words[:0]
		localApplied := 0
		for i := 0; i < b; i++ {
			a := rng.Uint64()
			dst, li := om.owner(a)
			if dst == e.Rank() {
				table[li] ^= a
				localApplied++
			} else {
				words = append(words, vic.Word{Dst: dst, Op: vic.OpFIFO, GC: vic.NoGC, Val: a})
				sentTo[dst]++
			}
		}
		n.Work(int64(2*b), int64(localApplied))
		e.Scatter(vic.DMACached, words)
		n.WorkEach(drain) // overlap: apply whatever has arrived
	}
	// Tell every peer how many updates we sent it, then drain to the exact
	// expected count.
	counts := make([]vic.Word, 0, par.Nodes-1)
	for d := 0; d < par.Nodes; d++ {
		if d != e.Rank() {
			counts = append(counts, vic.Word{Dst: d, Op: vic.OpWrite, GC: countGC,
				Addr: countBase + uint32(e.Rank()), Val: uint64(sentTo[d])})
		}
	}
	e.Scatter(vic.DMACached, counts)
	e.WaitGC(countGC, wait)
	expected = 0
	for src, w := range e.Read(countBase, par.Nodes) {
		if src != e.Rank() {
			expected += int64(w)
		}
	}
	for {
		n.WorkEach(drain)
		if drained >= expected {
			break
		}
		a, ok := e.PopFIFO(wait) // the FIFO is empty: wait for a word
		if !ok {
			break // timed out with updates still missing: they are lost
		}
		apply(a)
		n.Work(1, 1)
	}
	sent := int64(0)
	for _, c := range sentTo {
		sent += c
	}
	if par.WaitTimeout == 0 {
		// The intrinsic barrier hangs forever if one of its notification
		// packets is lost, so the bounded (faulty) mode skips it.
		e.Barrier()
	}
	return n.P.Now() - t0, sent, drained
}

// runDVReliable is the loss-tolerant DV variant: a bulk-synchronous mailbox
// exchange over the reliable-delivery layer. Each round every node writes its
// remote updates into per-source mailbox slots on the owners (unique
// addresses, so retransmits are idempotent) plus a per-source count word,
// all through ReliableScatter; a ReliableBarrier makes the round's writes
// visible; owners then read their mailboxes and apply. Counts are written
// every round — including zeros — so a stale count can never be mistaken for
// fresh data.
func runDVReliable(n *cluster.Node, be comm.Backend, par Params, table []uint64) (sim.Time, int) {
	e := be.Endpoint()
	b := par.BatchWords
	mbox := e.Alloc(par.Nodes * b) // mailbox slot [src*b+j]
	cnts := e.Alloc(par.Nodes)     // cnts[src] = words src sent me this round
	rng := updateStream(par.Seed, n.ID)
	om := newOwnerMap(par.Nodes, par.TableWordsNode)
	errs := 0
	fail := func(err error) {
		if err != nil {
			errs++
		}
	}
	fail(e.ReliableBarrier())
	t0 := n.P.Now()
	rounds := (par.UpdatesPerNode + b - 1) / b
	left := par.UpdatesPerNode
	perDst := make([]int, par.Nodes)
	words := make([]vic.Word, 0, 2*b)
	for r := 0; r < rounds; r++ {
		bb := b
		if bb > left {
			bb = left
		}
		left -= bb
		for i := range perDst {
			perDst[i] = 0
		}
		words = words[:0]
		localApplied := 0
		for i := 0; i < bb; i++ {
			a := rng.Uint64()
			dst, li := om.owner(a)
			if dst == e.Rank() {
				table[li] ^= a
				localApplied++
			} else {
				words = append(words, vic.Word{Dst: dst, Op: vic.OpWrite, GC: vic.NoGC,
					Addr: mbox + uint32(e.Rank()*b+perDst[dst]), Val: a})
				perDst[dst]++
			}
		}
		for d := 0; d < par.Nodes; d++ {
			if d != e.Rank() {
				words = append(words, vic.Word{Dst: d, Op: vic.OpWrite, GC: vic.NoGC,
					Addr: cnts + uint32(e.Rank()), Val: uint64(perDst[d])})
			}
		}
		n.Work(int64(2*bb), int64(localApplied))
		fail(e.ReliableScatter(words))
		fail(e.ReliableBarrier()) // every mailbox write is now visible
		counts := e.Read(cnts, par.Nodes)
		applied := 0
		for src := 0; src < par.Nodes; src++ {
			if src == e.Rank() || counts[src] == 0 {
				continue
			}
			for _, a := range e.Read(mbox+uint32(src*b), int(counts[src])) {
				_, li := om.owner(a)
				table[li] ^= a
				applied++
			}
		}
		n.Work(int64(applied), int64(applied))
		fail(e.ReliableBarrier()) // reads done: slots may be overwritten
	}
	return n.P.Now() - t0, errs
}
