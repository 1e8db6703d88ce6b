package mpi

import (
	"bytes"
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

func TestSelfSend(t *testing.T) {
	spmd(2, func(c *Comm) {
		if c.Rank() != 0 {
			return
		}
		req := c.Isend(0, 4, []byte{1, 2, 3})
		data, st := c.Recv(0, 4)
		c.Wait(req)
		if !bytes.Equal(data, []byte{1, 2, 3}) || st.Source != 0 {
			t.Errorf("self-send: %v %+v", data, st)
		}
	})
}

func TestEagerRendezvousBoundary(t *testing.T) {
	// Sizes straddling the eager limit must all round-trip intact.
	limit := DefaultParams().EagerLimit
	for _, n := range []int{limit - 1, limit, limit + 1, 4 * limit} {
		n := n
		spmd(2, func(c *Comm) {
			payload := bytes.Repeat([]byte{0xAB}, n)
			if c.Rank() == 0 {
				c.Send(1, 1, payload)
			} else {
				data, _ := c.Recv(0, 1)
				if !bytes.Equal(data, payload) {
					t.Errorf("size %d corrupted", n)
				}
			}
		})
	}
}

func TestMixedProtocolOrdering(t *testing.T) {
	// An eager message sent AFTER a rendezvous message with the same
	// envelope must still be received second (non-overtaking).
	spmd(2, func(c *Comm) {
		big := bytes.Repeat([]byte{1}, 64*1024)
		if c.Rank() == 0 {
			r1 := c.Isend(1, 5, big)       // rendezvous
			r2 := c.Isend(1, 5, []byte{2}) // eager, same envelope
			c.Waitall([]*Request{r1, r2})
		} else {
			first, _ := c.Recv(0, 5)
			second, _ := c.Recv(0, 5)
			if len(first) != 64*1024 || len(second) != 1 {
				t.Errorf("overtaken: got %d then %d bytes", len(first), len(second))
			}
		}
	})
}

func TestSenderBufferReuseAfterWait(t *testing.T) {
	// Once Wait returns, mutating the source buffer must not corrupt the
	// message (eager and rendezvous both copy before/at completion).
	for _, n := range []int{64, 100_000} {
		n := n
		spmd(2, func(c *Comm) {
			if c.Rank() == 0 {
				buf := bytes.Repeat([]byte{7}, n)
				req := c.Isend(1, 1, buf)
				c.Wait(req)
				for i := range buf {
					buf[i] = 0xFF // trash it after completion
				}
				c.Barrier()
			} else {
				data, _ := c.Recv(0, 1)
				c.Barrier()
				for _, b := range data {
					if b != 7 {
						t.Errorf("size %d: buffer reuse corrupted message", n)
						return
					}
				}
			}
		})
	}
}

func TestIrecvPostedBeforeSend(t *testing.T) {
	spmd(2, func(c *Comm) {
		if c.Rank() == 1 {
			req := c.Irecv(0, 3) // posted early
			c.Barrier()
			data, st := c.Wait(req)
			if data[0] != 9 || st.Bytes != 1 {
				t.Errorf("posted recv: %v %+v", data, st)
			}
		} else {
			c.Barrier()
			c.Send(1, 3, []byte{9})
		}
	})
}

func TestManyOutstandingRequests(t *testing.T) {
	spmd(2, func(c *Comm) {
		const n = 64
		if c.Rank() == 0 {
			reqs := make([]*Request, n)
			for i := range reqs {
				reqs[i] = c.Isend(1, i, []byte{byte(i)})
			}
			c.Waitall(reqs)
		} else {
			// Receive in reverse tag order to stress the unexpected queue.
			for i := n - 1; i >= 0; i-- {
				d, _ := c.Recv(0, i)
				if d[0] != byte(i) {
					t.Fatalf("tag %d got %d", i, d[0])
				}
			}
		}
	})
}

func TestCollectivePropertyRandomSizes(t *testing.T) {
	check := func(seed uint64) bool {
		rng := sim.NewRNG(seed)
		n := rng.Intn(6) + 2
		size := rng.Intn(3000)
		root := rng.Intn(n)
		ok := true
		spmd(n, func(c *Comm) {
			var data []byte
			if c.Rank() == root {
				data = bytes.Repeat([]byte{0x5A}, size)
			}
			got := c.Bcast(root, data)
			if len(got) != size {
				ok = false
			}
			sum := c.Allreduce([]float64{1}, Sum)
			if sum[0] != float64(n) {
				ok = false
			}
		})
		return ok
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 12}); err != nil {
		t.Error(err)
	}
}

func TestFabricStatsCount(t *testing.T) {
	k := sim.NewKernel()
	// Reuse the spmd harness indirectly: count via Comm telemetry.
	_ = k
	spmd(2, func(c *Comm) {
		if c.Rank() == 0 {
			c.Send(1, 1, make([]byte, 100))
			if c.SentMessages != 1 || c.SentBytes != 100 {
				t.Errorf("telemetry: %d msgs %d bytes", c.SentMessages, c.SentBytes)
			}
		} else {
			c.Recv(0, 1)
		}
	})
}
