package mpi

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/ib"
	"repro/internal/sim"
)

// launch runs body on n ranks over a default fabric and returns the final
// virtual time and how many ranks came out of body. Kernel.Run ends quietly
// when the ranks still standing are all parked, so the count is the only sign
// of a rank that hung.
func launch(n int, body func(c *Comm)) (end sim.Time, finished int) {
	k := sim.NewKernel()
	w := NewWorld(k, ib.New(k, n, ib.DefaultParams()), DefaultParams())
	for i := 0; i < n; i++ {
		i := i
		k.Spawn(fmt.Sprintf("rank%d", i), func(p *sim.Proc) {
			body(w.Bind(i, p))
			finished++
		})
	}
	return k.Run(), finished
}

// spmd is launch for a body every rank must get through: a hung rank would
// skip its assertions and leave the test green, so it panics instead.
func spmd(n int, body func(c *Comm)) sim.Time {
	end, finished := launch(n, body)
	if finished != n {
		panic(fmt.Sprintf("spmd: %d of %d ranks never returned from body (deadlock)", n-finished, n))
	}
	return end
}

func TestSendRecv(t *testing.T) {
	spmd(2, func(c *Comm) {
		if c.Rank() == 0 {
			c.Send(1, 7, []byte("hello"))
		} else {
			data, st := c.Recv(0, 7)
			if string(data) != "hello" || st.Source != 0 || st.Tag != 7 {
				t.Errorf("got %q %+v", data, st)
			}
		}
	})
}

func TestSendRecvLargeRendezvous(t *testing.T) {
	payload := make([]byte, 1<<20) // 1 MB, well over the eager limit
	for i := range payload {
		payload[i] = byte(i * 7)
	}
	spmd(2, func(c *Comm) {
		if c.Rank() == 0 {
			c.Send(1, 1, payload)
		} else {
			data, _ := c.Recv(0, 1)
			if !bytes.Equal(data, payload) {
				t.Error("rendezvous payload corrupted")
			}
		}
	})
}

func TestRecvAnySourceAnyTag(t *testing.T) {
	spmd(4, func(c *Comm) {
		if c.Rank() == 0 {
			seen := map[int]bool{}
			for i := 0; i < 3; i++ {
				data, st := c.Recv(AnySource, AnyTag)
				if int(data[0]) != st.Source {
					t.Errorf("payload %d from %d", data[0], st.Source)
				}
				seen[st.Source] = true
			}
			if len(seen) != 3 {
				t.Errorf("sources %v", seen)
			}
		} else {
			c.Send(0, c.Rank()*10, []byte{byte(c.Rank())})
		}
	})
}

func TestTagSelectivity(t *testing.T) {
	spmd(2, func(c *Comm) {
		if c.Rank() == 0 {
			// Send tag 2 first, then tag 1; receiver asks for 1 first.
			c.Send(1, 2, []byte{2})
			c.Send(1, 1, []byte{1})
		} else {
			d1, _ := c.Recv(0, 1)
			d2, _ := c.Recv(0, 2)
			if d1[0] != 1 || d2[0] != 2 {
				t.Errorf("tag matching broken: %v %v", d1, d2)
			}
		}
	})
}

func TestNonOvertakingSameTag(t *testing.T) {
	// Messages with equal envelopes must be received in send order.
	spmd(2, func(c *Comm) {
		const n = 20
		if c.Rank() == 0 {
			for i := 0; i < n; i++ {
				c.Send(1, 3, []byte{byte(i)})
			}
		} else {
			for i := 0; i < n; i++ {
				d, _ := c.Recv(0, 3)
				if d[0] != byte(i) {
					t.Fatalf("message %d overtaken by %d", i, d[0])
				}
			}
		}
	})
}

func TestIsendIrecvWaitall(t *testing.T) {
	spmd(4, func(c *Comm) {
		n := c.Size()
		var reqs []*Request
		recvs := make([]*Request, 0, n-1)
		for i := 0; i < n; i++ {
			if i == c.Rank() {
				continue
			}
			reqs = append(reqs, c.Isend(i, 5, []byte{byte(c.Rank())}))
			r := c.Irecv(i, 5)
			recvs = append(recvs, r)
			reqs = append(reqs, r)
		}
		c.Waitall(reqs)
		for _, r := range recvs {
			d, st := c.Wait(r)
			if int(d[0]) != st.Source {
				t.Errorf("bad payload from %d", st.Source)
			}
		}
	})
}

func TestBarrierSynchronises(t *testing.T) {
	for _, n := range []int{2, 3, 5, 8, 16} {
		entry := make([]sim.Time, n)
		exit := make([]sim.Time, n)
		spmd(n, func(c *Comm) {
			c.p.Wait(sim.Time(c.Rank()) * sim.Microsecond)
			entry[c.Rank()] = c.p.Now()
			c.Barrier()
			exit[c.Rank()] = c.p.Now()
		})
		var lastEntry sim.Time
		for _, e := range entry {
			if e > lastEntry {
				lastEntry = e
			}
		}
		for i, x := range exit {
			if x < lastEntry {
				t.Fatalf("n=%d: rank %d exited barrier at %v before last entry %v", n, i, x, lastEntry)
			}
		}
	}
}

func TestBarrierLatencyGrows(t *testing.T) {
	// MPI-over-IB barrier latency must grow clearly with node count
	// (paper Figure 4); the DV intrinsic barrier stays flat by contrast.
	lat := func(n int) sim.Time {
		var worst sim.Time
		spmd(n, func(c *Comm) {
			t0 := c.p.Now()
			c.Barrier()
			if d := c.p.Now() - t0; d > worst {
				worst = d
			}
		})
		return worst
	}
	l2, l32 := lat(2), lat(32)
	if l32 < 3*l2 {
		t.Fatalf("expected MPI barrier to grow: 2 nodes %v, 32 nodes %v", l2, l32)
	}
}

func TestBcast(t *testing.T) {
	for _, n := range []int{2, 3, 7, 8} {
		for root := 0; root < n; root += 3 {
			spmd(n, func(c *Comm) {
				var data []byte
				if c.Rank() == root {
					data = []byte{9, 8, 7}
				}
				got := c.Bcast(root, data)
				if !bytes.Equal(got, []byte{9, 8, 7}) {
					t.Errorf("n=%d root=%d rank=%d: got %v", n, root, c.Rank(), got)
				}
			})
		}
	}
}

func TestReduceSum(t *testing.T) {
	for _, n := range []int{2, 3, 8} {
		spmd(n, func(c *Comm) {
			vals := []float64{float64(c.Rank()), 1}
			out := c.Reduce(0, vals, Sum)
			if c.Rank() == 0 {
				wantSum := float64(n*(n-1)) / 2
				if out[0] != wantSum || out[1] != float64(n) {
					t.Errorf("n=%d: reduce got %v", n, out)
				}
			} else if out != nil {
				t.Errorf("non-root got %v", out)
			}
		})
	}
}

func TestAllreduceMax(t *testing.T) {
	spmd(6, func(c *Comm) {
		out := c.Allreduce([]float64{float64(c.Rank())}, Max)
		if out[0] != 5 {
			t.Errorf("rank %d: allreduce max = %v", c.Rank(), out)
		}
	})
}

func TestAlltoall(t *testing.T) {
	for _, n := range []int{2, 3, 8} {
		spmd(n, func(c *Comm) {
			send := make([][]byte, n)
			for i := range send {
				send[i] = []byte{byte(c.Rank()), byte(i)}
			}
			recv := c.Alltoall(send)
			for i, d := range recv {
				if d[0] != byte(i) || d[1] != byte(c.Rank()) {
					t.Errorf("n=%d rank=%d: recv[%d] = %v", n, c.Rank(), i, d)
				}
			}
		})
	}
}

func TestAlltoallVariableSizes(t *testing.T) {
	spmd(4, func(c *Comm) {
		send := make([][]byte, 4)
		for i := range send {
			send[i] = bytes.Repeat([]byte{byte(c.Rank())}, c.Rank()*100+i)
		}
		recv := c.Alltoall(send)
		for i, d := range recv {
			want := i*100 + c.Rank()
			if len(d) != want {
				t.Errorf("recv[%d] has %d bytes, want %d", i, len(d), want)
			}
		}
	})
}

func TestAlltoallConservesBytes(t *testing.T) {
	check := func(seed uint64) bool {
		const n = 5
		rng := sim.NewRNG(seed)
		sizes := make([][]int, n)
		for i := range sizes {
			sizes[i] = make([]int, n)
			for j := range sizes[i] {
				sizes[i][j] = rng.Intn(2000)
			}
		}
		ok := true
		spmd(n, func(c *Comm) {
			send := make([][]byte, n)
			for j := range send {
				send[j] = make([]byte, sizes[c.Rank()][j])
			}
			recv := c.Alltoall(send)
			for j := range recv {
				if len(recv[j]) != sizes[j][c.Rank()] {
					ok = false
				}
			}
		})
		return ok
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 10}); err != nil {
		t.Error(err)
	}
}

func TestAllgather(t *testing.T) {
	spmd(5, func(c *Comm) {
		out := c.Allgather([]byte{byte(c.Rank() * 2)})
		for i, d := range out {
			if len(d) != 1 || d[0] != byte(i*2) {
				t.Errorf("rank %d: out[%d] = %v", c.Rank(), i, d)
			}
		}
	})
}

func TestWireHelpersRoundTrip(t *testing.T) {
	f := []float64{1.5, -2.25, 3e300, 0}
	if got := Float64sInto(nil, AppendFloat64s(nil, f)); len(got) != len(f) {
		t.Fatal("float64 round trip length")
	} else {
		for i := range f {
			if got[i] != f[i] {
				t.Fatalf("float64 round trip: %v", got)
			}
		}
	}
	u := []uint64{0, 1, 1 << 63, 0xdeadbeef}
	got := Uint64sInto(make([]uint64, 9), AppendUint64s(nil, u)) // decoded over longer scratch
	if len(got) != len(u) {
		t.Fatalf("uint64 round trip length %d, want %d", len(got), len(u))
	}
	for i := range u {
		if got[i] != u[i] {
			t.Fatalf("uint64 round trip: %v", got)
		}
	}
}

func TestLargeTransferBandwidth(t *testing.T) {
	// One-way large transfer should approach StreamBW (~72% of link peak).
	const bytesN = 8 << 20
	var elapsed sim.Time
	spmd(2, func(c *Comm) {
		if c.Rank() == 0 {
			c.Send(1, 1, make([]byte, bytesN))
		} else {
			t0 := c.p.Now()
			c.Recv(0, 1)
			elapsed = c.p.Now() - t0
		}
	})
	bw := float64(bytesN) / elapsed.Seconds()
	if bw < 3.5e9 || bw > 6.8e9 {
		t.Fatalf("large-transfer bandwidth %.2f GB/s out of range", bw/1e9)
	}
}

func TestSmallMessageLatency(t *testing.T) {
	// Small-message one-way latency should be in the ~1–2 µs MPI range.
	var rtt sim.Time
	spmd(2, func(c *Comm) {
		if c.Rank() == 0 {
			t0 := c.p.Now()
			c.Send(1, 1, make([]byte, 8))
			c.Recv(1, 2)
			rtt = c.p.Now() - t0
		} else {
			c.Recv(0, 1)
			c.Send(0, 2, make([]byte, 8))
		}
	})
	if rtt < sim.Microsecond || rtt > 8*sim.Microsecond {
		t.Fatalf("small-message RTT %v out of MPI range", rtt)
	}
}

func TestInvalidUserTagPanics(t *testing.T) {
	panicked := false
	spmd(2, func(c *Comm) {
		if c.Rank() == 0 {
			defer func() {
				if recover() != nil {
					panicked = true
				}
			}()
			c.Isend(1, -5, nil)
		}
	})
	if !panicked {
		t.Fatal("expected panic")
	}
}

// TestInvalidRecvTagPanics: a receive takes AnyTag or a user tag. Any other
// tag is refused with a message naming the rank, the tag and the
// communicator's size — a tag at or above the user range would otherwise
// wait forever or, inside the internal range, take a collective's message.
func TestInvalidRecvTagPanics(t *testing.T) {
	for _, tc := range []struct {
		tag   int
		valid bool
	}{
		{AnyTag, true}, {0, true}, {userTagLimit - 1, true},
		{-5, false}, {userTagLimit, false}, {ctrlTagBase + 5, false},
	} {
		t.Run(fmt.Sprint(tc.tag), func(t *testing.T) {
			var msg any
			spmd(4, func(c *Comm) {
				if c.Rank() == 2 {
					defer func() { msg = recover() }()
					c.Irecv(1, tc.tag)
				}
			})
			if tc.valid {
				if msg != nil {
					t.Fatalf("Irecv(1, %d) panicked: %v", tc.tag, msg)
				}
				return
			}
			s, _ := msg.(string)
			for _, part := range []string{"mpi: ", "rank 2", fmt.Sprint("tag ", tc.tag), "size 4"} {
				if !strings.Contains(s, part) {
					t.Errorf("panic %v does not name %q", msg, part)
				}
			}
		})
	}
}

func TestDeterministicEndTime(t *testing.T) {
	run := func() sim.Time {
		// Partners are random, so some ranks are still in Recv when the
		// traffic runs out: launch, which allows that, not spmd.
		end, _ := launch(8, func(c *Comm) {
			rng := sim.NewRNG(uint64(c.Rank() + 1))
			for i := 0; i < 20; i++ {
				dst := int(rng.Uint64n(8))
				if dst == c.Rank() {
					dst = (dst + 1) % 8
				}
				c.Send(dst, 1, make([]byte, rng.Intn(100)))
				c.Recv(AnySource, 1)
			}
		})
		return end
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("non-deterministic: %v vs %v", a, b)
	}
}
