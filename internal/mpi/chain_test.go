package mpi

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/ib"
	"repro/internal/sim"
)

// loopWait is Wait as a loop of parks: one on the request's gate per
// release, then one for the receive overhead.
func loopWait(c *Comm, r *Request) []byte {
	for !r.done {
		r.gate.Wait(c.p)
	}
	if r.overhead > 0 {
		c.p.Wait(r.overhead)
		r.overhead = 0
	}
	return r.data
}

// The three collectives written as their rounds, through the public Isend and
// Irecv and loopWait: the partners, blocks and order of chain.begin and
// chain.store, under a user tag of their own per call and round.

func loopAlltoall(c *Comm, call int, send [][]byte) [][]byte {
	n := c.Size()
	recv := make([][]byte, n)
	recv[c.rank] = send[c.rank]
	tag := call<<8 | 2
	for step := 1; step < n; step++ {
		dst, src := (c.rank+step)%n, (c.rank-step+n)%n
		sreq := c.Isend(dst, tag, send[dst])
		recv[src] = loopWait(c, c.Irecv(src, tag))
		loopWait(c, sreq)
	}
	return recv
}

func loopAllgather(c *Comm, call int, data []byte) [][]byte {
	n := c.Size()
	out := make([][]byte, n)
	out[c.rank] = data
	tag := call<<8 | 3
	cur := c.rank
	for step := 0; step < n-1; step++ {
		sreq := c.Isend((c.rank+1)%n, tag, out[cur])
		got := loopWait(c, c.Irecv((c.rank-1+n)%n, tag))
		cur = (cur - 1 + n) % n
		out[cur] = got
		loopWait(c, sreq)
	}
	return out
}

func loopBarrier(c *Comm, call int) {
	n := c.Size()
	for r, dist := 0, 1; dist < n; r, dist = r+1, dist*2 {
		tag := call<<8 | r
		sreq := c.Isend((c.rank+dist)%n, tag, nil)
		loopWait(c, c.Irecv((c.rank-dist+n)%n, tag))
		loopWait(c, sreq)
	}
}

// collCall is one collective of a script: op 0 Alltoall, 1 Allgather,
// 2 Barrier; sizes[rank] holds the rank's block sizes, per destination for
// an Alltoall and one for an Allgather.
type collCall struct {
	op    int
	sizes [][]int
}

// collRun is what one way of running a script left behind.
type collRun struct {
	events         []string   // time and queue fingerprint after each event
	ends           []sim.Time // per rank, when it came out of its last call
	got            [][]byte   // per rank, every byte each call returned, with lengths
	fired, resumes uint64
}

// runCollectives runs calls on n ranks, chained (the mpi collectives) or as
// the loops above, one event at a time.
func runCollectives(n int, calls []collCall, chained bool) collRun {
	k := sim.NewKernel()
	w := NewWorld(k, ib.New(k, n, ib.DefaultParams()), DefaultParams())
	run := collRun{ends: make([]sim.Time, n), got: make([][]byte, n)}
	for rank := 0; rank < n; rank++ {
		k.Spawn(fmt.Sprint("rank", rank), func(p *sim.Proc) {
			c := w.Bind(rank, p)
			for i, call := range calls {
				var res [][]byte
				switch sz := call.sizes[rank]; call.op {
				case 0:
					blocks := make([][]byte, n)
					for dst := range blocks {
						blocks[dst] = fill(make([]byte, sz[dst]), i, rank, dst)
					}
					if chained {
						res = c.Alltoall(blocks)
					} else {
						res = loopAlltoall(c, i, blocks)
					}
				case 1:
					data := fill(make([]byte, sz[0]), i, rank, 0)
					if chained {
						res = c.Allgather(data)
					} else {
						res = loopAllgather(c, i, data)
					}
				default:
					if chained {
						c.Barrier()
					} else {
						loopBarrier(c, i)
					}
				}
				for _, b := range res { // copied out: the next call recycles them
					run.got[rank] = append(AppendUint64(run.got[rank], uint64(len(b))), b...)
				}
			}
			run.ends[rank] = p.Now()
		})
	}
	for k.RunUntilN(sim.Forever, 1) == 1 {
		q, fp := k.QueueFingerprint()
		run.events = append(run.events, fmt.Sprintf("%v q%d:%x", k.Now(), q, fp))
		if len(run.events) > 1<<16 { // far above any script here: a rank spinning at one instant
			run.events = append(run.events, "runaway")
			break
		}
	}
	k.Finish()
	run.fired, run.resumes = k.Counts()
	return run
}

// TestCollectiveChainMatchesWaitLoop: seeded scripts of Alltoall, Allgather
// and Barrier calls, on power-of-two and other rank counts, with blocks
// empty, small, at EagerLimit and above it (rendezvous), run as the chained
// collectives and as the same rounds through Isend, Irecv and a Wait loop.
// Every event must leave the same time and queue behind, and every rank must
// end at the same instant with the same bytes; the chained run switches to
// each rank once per call (every call here waits) and once at its start.
func TestCollectiveChainMatchesWaitLoop(t *testing.T) {
	eager := DefaultParams().EagerLimit
	sizes := []int{0, 0, 8, 64, 1000, eager, eager + 1, 3 * eager}
	for _, n := range []int{2, 3, 5, 8} {
		for seed := uint64(1); seed <= 6; seed++ {
			rng := sim.NewRNG(seed*100 + uint64(n))
			calls := make([]collCall, 2+rng.Intn(5))
			for i := range calls {
				call := &calls[i]
				call.op = rng.Intn(3)
				call.sizes = make([][]int, n)
				for r := range call.sizes {
					call.sizes[r] = make([]int, n)
					for d := range call.sizes[r] {
						call.sizes[r][d] = sizes[rng.Intn(len(sizes))]
					}
				}
			}
			t.Run(fmt.Sprintf("ranks%d/seed%d", n, seed), func(t *testing.T) {
				want := runCollectives(n, calls, false)
				got := runCollectives(n, calls, true)
				for i := 0; i < len(want.events) && i < len(got.events); i++ {
					if got.events[i] != want.events[i] {
						t.Fatalf("after event %d: chained %s, loop %s", i, got.events[i], want.events[i])
					}
				}
				if len(got.events) != len(want.events) || got.fired != want.fired {
					t.Fatalf("chained run fired %d events (%d by Counts), loop %d (%d)", len(got.events), got.fired, len(want.events), want.fired)
				}
				if !slices.Equal(got.ends, want.ends) {
					t.Errorf("ranks ended at %v, loop at %v", got.ends, want.ends)
				}
				for r := range got.got {
					if !slices.Equal(got.got[r], want.got[r]) {
						t.Errorf("rank %d received other bytes than the loop", r)
					}
				}
				if wantRes := uint64(n * (1 + len(calls))); got.resumes != wantRes {
					t.Errorf("chained run made %d resumes, want %d: one per rank and call, and its start (the loop made %d)", got.resumes, wantRes, want.resumes)
				}
			})
		}
	}
}

// runPointToPoint runs a seeded script of point-to-point calls on n ranks,
// one event at a time: in a step of kind 0 the ranks pair up (0 with 1, 2
// with 3, ...), the lower one sending with Send and then receiving, the
// higher one the other way round; in a step of kind 1 every rank posts
// receives from both ring neighbours and sends to both, then waits for all
// four requests with Waitall. chained runs Send and Waitall; otherwise the
// same calls run as Isend and Wait loops (loopWait).
func runPointToPoint(n int, kinds []int, sizes [][]int, chained bool) collRun {
	k := sim.NewKernel()
	w := NewWorld(k, ib.New(k, n, ib.DefaultParams()), DefaultParams())
	run := collRun{ends: make([]sim.Time, n), got: make([][]byte, n)}
	for rank := 0; rank < n; rank++ {
		k.Spawn(fmt.Sprint("rank", rank), func(p *sim.Proc) {
			c := w.Bind(rank, p)
			send := func(dst, tag int, data []byte) {
				if chained {
					c.Send(dst, tag, data)
				} else {
					loopWait(c, c.Isend(dst, tag, data))
				}
			}
			keep := func(b []byte) {
				run.got[rank] = append(AppendUint64(run.got[rank], uint64(len(b))), b...)
			}
			for i, kind := range kinds {
				sz := sizes[i][rank]
				if kind == 0 {
					peer := rank ^ 1
					if peer >= n {
						continue
					}
					data := fill(make([]byte, sz), i, rank, peer)
					if rank < peer {
						send(peer, i, data)
						keep(loopWait(c, c.Irecv(peer, i)))
					} else {
						keep(loopWait(c, c.Irecv(peer, i)))
						send(peer, i, data)
					}
					continue
				}
				left, right := (rank-1+n)%n, (rank+1)%n
				rs := []*Request{c.Irecv(left, i), c.Irecv(right, i)}
				rs = append(rs, c.Isend(right, i, fill(make([]byte, sz), i, rank, right)),
					c.Isend(left, i, fill(make([]byte, sz), i, rank, left)))
				if chained {
					c.Waitall(rs)
				} else {
					for _, r := range rs {
						loopWait(c, r)
					}
				}
				keep(rs[0].data)
				keep(rs[1].data)
			}
			run.ends[rank] = p.Now()
		})
	}
	for k.RunUntilN(sim.Forever, 1) == 1 {
		q, fp := k.QueueFingerprint()
		run.events = append(run.events, fmt.Sprintf("%v q%d:%x", k.Now(), q, fp))
		if len(run.events) > 1<<16 {
			run.events = append(run.events, "runaway")
			break
		}
	}
	k.Finish()
	run.fired, run.resumes = k.Counts()
	return run
}

// TestSendWaitallChainMatchesWaitLoop: seeded scripts of Send/Recv pairs
// and Isend/Irecv rings closed by Waitall, with messages empty, small, at
// EagerLimit and above it (rendezvous), run with Send and Waitall (one chain
// per call) and with Isend and a Wait loop. Every event must leave the same
// time and queue behind, and every rank must end at the same instant with
// the same bytes, in fewer resumes.
func TestSendWaitallChainMatchesWaitLoop(t *testing.T) {
	eager := DefaultParams().EagerLimit
	msgSizes := []int{0, 8, 1000, eager, eager + 1, 3 * eager}
	for _, n := range []int{2, 3, 4, 5} {
		for seed := uint64(1); seed <= 6; seed++ {
			rng := sim.NewRNG(seed*1000 + uint64(n))
			kinds := make([]int, 2+rng.Intn(5))
			sizes := make([][]int, len(kinds))
			for i := range kinds {
				kinds[i] = rng.Intn(2)
				sizes[i] = make([]int, n)
				for r := range sizes[i] {
					sizes[i][r] = msgSizes[rng.Intn(len(msgSizes))]
				}
			}
			t.Run(fmt.Sprintf("ranks%d/seed%d", n, seed), func(t *testing.T) {
				want := runPointToPoint(n, kinds, sizes, false)
				got := runPointToPoint(n, kinds, sizes, true)
				for i := 0; i < len(want.events) && i < len(got.events); i++ {
					if got.events[i] != want.events[i] {
						t.Fatalf("after event %d: chained %s, loop %s", i, got.events[i], want.events[i])
					}
				}
				if len(got.events) != len(want.events) || got.fired != want.fired {
					t.Fatalf("chained run fired %d events (%d by Counts), loop %d (%d)", len(got.events), got.fired, len(want.events), want.fired)
				}
				if !slices.Equal(got.ends, want.ends) {
					t.Errorf("ranks ended at %v, loop at %v", got.ends, want.ends)
				}
				for r := range got.got {
					if !slices.Equal(got.got[r], want.got[r]) {
						t.Errorf("rank %d received other bytes than the loop", r)
					}
				}
				if got.resumes >= want.resumes {
					t.Errorf("chained run made %d resumes, the loop %d: want fewer", got.resumes, want.resumes)
				}
			})
		}
	}
}
