package mpi

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"repro/internal/sim"
)

// spmdRounds runs body rounds times on each of n ranks of a fresh world.
func spmdRounds(n, rounds int, body func(c *Comm)) {
	spmd(n, func(c *Comm) {
		for i := 0; i < rounds; i++ {
			body(c)
		}
	})
}

// gupsBlocks is the exchange of the MPI GUPS as benchmark/drivers.go drives
// it: one 64-byte block per rank, the same slice handed to every rank.
func gupsBlocks(ranks int) [][]byte {
	blocks := make([][]byte, ranks)
	for i := range blocks {
		blocks[i] = make([]byte, 64)
	}
	return blocks
}

// TestAlltoallSteadyStateAllocs holds the message path (an Alltoall loop, then
// a Barrier loop) to no allocation per message once warm: whole runs of 16 and
// of 64 rounds are counted, set-up and warm-up cancel in the difference, and
// what is left is divided by the extra messages. It reads 0.0000: sim's event
// heap reaches its high-water capacity within the shorter run. One object per
// message would read 1.
func TestAlltoallSteadyStateAllocs(t *testing.T) {
	const ranks = 32
	blocks := gupsBlocks(ranks)
	for _, tc := range []struct {
		name    string
		perCall int // point-to-point messages of one call, all ranks together
		call    func(c *Comm)
	}{
		{"Alltoall", ranks * (ranks - 1), func(c *Comm) { c.Alltoall(blocks) }},
		{"Barrier", ranks * 5, func(c *Comm) { c.Barrier() }}, // log2(32) dissemination rounds
	} {
		mallocs := func(rounds int) float64 {
			return testing.AllocsPerRun(2, func() { spmdRounds(ranks, rounds, tc.call) })
		}
		short, long := mallocs(16), mallocs(64)
		perMsg := (long - short) / float64((64-16)*tc.perCall)
		t.Logf("%s: %.0f mallocs in 16 rounds, %.0f in 64: %.4f per extra message", tc.name, short, long, perMsg)
		if perMsg >= 0.05 {
			t.Errorf("%s allocates %.2f objects per message in steady state, want 0", tc.name, perMsg)
		}
	}
}

// BenchmarkAlltoall is that exchange with one op one point-to-point message,
// rank set-up included, so ns/op is the ledger's mpi.alltoall_ns_per_msg and
// allocs/op reads 0 at any iteration count that amortises the set-up
// (-benchtime=1000000x is about a thousand rounds).
func BenchmarkAlltoall(b *testing.B) {
	const ranks = 32
	blocks := gupsBlocks(ranks)
	perRound := ranks * (ranks - 1)
	b.ReportAllocs()
	spmdRounds(ranks, (b.N+perRound-1)/perRound, func(c *Comm) { c.Alltoall(blocks) })
}

// fill writes the pattern the ownership tests recognise a block by.
func fill(b []byte, round, src, dst int) []byte {
	for i := range b {
		b[i] = byte(round*131 + src*31 + dst*7 + i)
	}
	return b
}

// TestBufferOwnership pins the rule in the package comment at the sizes where
// the protocol changes: who may touch which bytes, and until when.
func TestBufferOwnership(t *testing.T) {
	limit := DefaultParams().EagerLimit
	for _, size := range []int{limit - 1, limit, limit + 1} {
		t.Run(fmt.Sprintf("send buffer is the sender's again after Wait/%d", size), func(t *testing.T) {
			spmd(2, func(c *Comm) {
				if c.Rank() == 0 {
					buf := fill(make([]byte, size), 1, 0, 1)
					c.Wait(c.Isend(1, 1, buf))
					fill(buf, 2, 0, 1) // the next message, written over the last
					c.Send(1, 1, buf)
					return
				}
				first, _ := c.Recv(0, 1)
				second, _ := c.Recv(0, 1)
				if !bytes.Equal(first, fill(make([]byte, size), 1, 0, 1)) {
					t.Error("the first message changed when the sender reused its buffer")
				}
				if !bytes.Equal(second, fill(make([]byte, size), 2, 0, 1)) {
					t.Error("the second message is corrupt")
				}
			})
		})

		t.Run(fmt.Sprintf("Alltoall result lives until the next collective/%d", size), func(t *testing.T) {
			const ranks, rounds = 4, 5
			spmd(ranks, func(c *Comm) {
				me := c.Rank()
				send := make([][]byte, ranks)
				for d := range send {
					send[d] = make([]byte, size)
				}
				want := make([]byte, size)
				for round := 0; round < rounds; round++ {
					for d := range send {
						fill(send[d], round, me, d) // over what the last round sent
					}
					recv := c.Alltoall(send)
					check := func(when string) {
						for src := range recv {
							if !bytes.Equal(recv[src], fill(want, round, src, me)) {
								t.Errorf("round %d, rank %d, %s: block from %d is not what it sent", round, me, when, src)
							}
						}
					}
					check("on return")
					// Point-to-point traffic is not a collective: the result
					// stays put under it, and under the other ranks running on
					// into their next Alltoall.
					c.p.Wait(sim.Time(me) * 3 * sim.Microsecond)
					right, left := (me+1)%ranks, (me+ranks-1)%ranks
					sreq := c.Isend(right, 9, send[right])
					c.Recv(left, 9)
					c.Wait(sreq)
					check("after later messages")
				}
			})
		})

		t.Run(fmt.Sprintf("ranks may share one send slice/%d", size), func(t *testing.T) {
			const ranks = 4
			blocks := make([][]byte, ranks)
			for d := range blocks {
				blocks[d] = fill(make([]byte, size), 0, 0, d)
			}
			spmdRounds(ranks, 3, func(c *Comm) {
				for src, b := range c.Alltoall(blocks) {
					if !bytes.Equal(b, blocks[c.Rank()]) {
						t.Errorf("rank %d: block from %d is not blocks[%d]", c.Rank(), src, c.Rank())
					}
				}
			})
			for d := range blocks {
				if !bytes.Equal(blocks[d], fill(make([]byte, size), 0, 0, d)) {
					t.Errorf("Alltoall wrote to the caller's blocks[%d]", d)
				}
			}
		})
	}

	t.Run("received data is the caller's for good", func(t *testing.T) {
		const ranks = 4
		spmd(ranks, func(c *Comm) {
			me := c.Rank()
			right, left := (me+1)%ranks, (me+ranks-1)%ranks
			sreq := c.Isend(right, 3, fill(make([]byte, 200), 0, me, right))
			kept, _ := c.Recv(left, 3)
			c.Wait(sreq)
			// Over 1,000 later messages a rank, of every kind, all the size
			// of the one kept so that a recycled buffer would be a match.
			blocks := make([][]byte, ranks)
			for d := range blocks {
				blocks[d] = fill(make([]byte, 200), 1, me, d)
			}
			for i := 0; i < 125; i++ {
				c.Alltoall(blocks)
				c.Allgather(blocks[0])
				c.Bcast(i%ranks, blocks[1])
				c.Allreduce([]float64{1}, Sum)
				c.Send(right, 4, blocks[2])
				c.Recv(left, 4)
			}
			if !bytes.Equal(kept, fill(make([]byte, 200), 0, left, me)) {
				t.Errorf("rank %d: data returned by Recv changed under later traffic", me)
			}
		})
	})

	t.Run("a request from Irecv is the caller's for good", func(t *testing.T) {
		const ranks = 4
		checked := 0
		spmd(ranks, func(c *Comm) {
			me := c.Rank()
			right, left := (me+1)%ranks, (me+ranks-1)%ranks
			rreq := c.Irecv(left, 3)
			c.Waitall([]*Request{c.Isend(right, 3, []byte{byte(me)}), rreq})
			// Traffic that takes requests from, and puts them back on, the
			// free list: none of it may come by rreq.
			for i := 0; i < 50; i++ {
				c.Barrier()
				c.Send(right, 4, []byte{0xff})
				c.Recv(left, 4)
			}
			t0 := c.p.Now()
			for again := 0; again < 2; again++ {
				data, st := c.Wait(rreq)
				if len(data) != 1 || int(data[0]) != left || st != (Status{Source: left, Tag: 3, Bytes: 1}) {
					t.Errorf("rank %d, Wait %d after Waitall: %v %+v", me, again+1, data, st)
				}
				checked++
			}
			if c.p.Now() != t0 {
				t.Errorf("rank %d: waiting again on a completed request took %v", me, c.p.Now()-t0)
			}
		})
		if checked != 2*ranks {
			t.Errorf("%d of %d checks ran", checked, 2*ranks)
		}
	})

	t.Run("wildcards match in arrival order with recycled requests", func(t *testing.T) {
		type env struct{ src, tag int }
		spmd(4, func(c *Comm) {
			for pass := 0; pass < 3; pass++ { // passes 1 and 2 run on recycled requests and envelopes
				c.Barrier()
				if me := c.Rank(); me != 0 {
					// Two messages a sender, senders 10 us apart: rank 0 finds
					// 1a 1b 2a 2b 3a 3b in its unexpected queue.
					c.p.Wait(sim.Time(me) * 10 * sim.Microsecond)
					c.Send(0, me*10, []byte{byte(me)})
					c.Send(0, me*10+1, []byte{byte(me)})
					// Straight on into the next pass's Barrier: its messages
					// queue at rank 0 beside these, and AnyTag must pass them by.
					continue
				}
				c.p.Wait(100 * sim.Microsecond)
				var got []env
				recv := func(src, tag int) {
					data, st := c.Recv(src, tag)
					if int(data[0]) != st.Source {
						t.Errorf("pass %d: payload of rank %d under source %d", pass, data[0], st.Source)
					}
					got = append(got, env{st.Source, st.Tag})
				}
				recv(2, AnyTag)         // from the middle of the queue
				recv(AnySource, 31)     // and from its end
				recv(AnySource, AnyTag) // then whatever is oldest
				recv(AnySource, AnyTag)
				recv(3, AnyTag)
				recv(AnySource, AnyTag)
				want := []env{{2, 20}, {3, 31}, {1, 10}, {1, 11}, {3, 30}, {2, 21}}
				if fmt.Sprint(got) != fmt.Sprint(want) {
					t.Errorf("pass %d: matched %v, want %v", pass, got, want)
				}
			}
		})
	})
}

// TestRankOutOfRange: a send or a receive outside the communicator and an
// Alltoall with the wrong number of blocks are caller bugs, reported by mpi
// in its own words — who, to or from whom, how large the communicator is —
// before the fabric or an index expression gets to, or a receive that no
// rank can match waits forever.
func TestRankOutOfRange(t *testing.T) {
	const ranks = 4
	for _, tc := range []struct {
		name string
		call func(c *Comm)
		want []string // nil: must not panic
	}{
		{"Isend to rank 0", func(c *Comm) { c.Isend(0, 1, nil) }, nil},
		{"Isend to the last rank", func(c *Comm) { c.Isend(ranks-1, 1, nil) }, nil},
		{"Isend to rank -1", func(c *Comm) { c.Isend(-1, 1, nil) }, []string{"rank 2", "rank -1", "size 4"}},
		{"Isend to rank size", func(c *Comm) { c.Isend(ranks, 1, nil) }, []string{"rank 2", "rank 4", "size 4"}},
		{"Send to rank size+5", func(c *Comm) { c.Send(ranks+5, 1, []byte{1}) }, []string{"rank 2", "rank 9", "size 4"}},
		{"Irecv from AnySource", func(c *Comm) { c.Irecv(AnySource, 1) }, nil},
		{"Irecv from the last rank", func(c *Comm) { c.Irecv(ranks-1, 1) }, nil},
		{"Irecv from rank -2", func(c *Comm) { c.Irecv(-2, 1) }, []string{"rank 2", "rank -2", "size 4"}},
		{"Irecv from rank size", func(c *Comm) { c.Irecv(ranks, 1) }, []string{"rank 2", "rank 4", "size 4"}},
		{"Irecv from rank 7", func(c *Comm) { c.Irecv(7, 5) }, []string{"rank 2", "rank 7", "size 4"}},
		{"Recv from rank size+1", func(c *Comm) { c.Recv(ranks+1, 1) }, []string{"rank 2", "rank 5", "size 4"}},
		{"Alltoall with one block per rank", func(c *Comm) { c.Alltoall(make([][]byte, ranks)) }, nil},
		{"Alltoall with a block too few", func(c *Comm) { c.Alltoall(make([][]byte, ranks-1)) }, []string{"rank 2", "3 blocks", "size 4"}},
		{"Alltoall with a block too many", func(c *Comm) { c.Alltoall(make([][]byte, ranks+1)) }, []string{"rank 2", "5 blocks", "size 4"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var msg any
			spmd(ranks, func(c *Comm) {
				if tc.want == nil { // a valid call: every rank makes it
					tc.call(c)
					return
				}
				if c.Rank() == 2 {
					defer func() { msg = recover() }()
					tc.call(c)
				}
			})
			if tc.want == nil {
				return // reaching here is the pass: spmd did not panic
			}
			s, ok := msg.(string)
			if !ok || !strings.HasPrefix(s, "mpi: ") {
				t.Fatalf("panic value %v, want a string that starts \"mpi: \"", msg)
			}
			for _, part := range tc.want {
				if !strings.Contains(s, part) {
					t.Errorf("message %q does not name %q", s, part)
				}
			}
		})
	}
}
