package vic

// Boundary microbenchmarks: the VIC-side cost of moving packets across the
// inject and eject seams, isolated from switch-model time by a counting sink
// fabric. Each benchmark body is also held to zero steady-state allocations
// by TestBoundaryZeroAllocs.

import (
	"testing"

	"repro/internal/dvswitch"
	"repro/internal/sim"
)

const benchBurst = 512 // words per HostSend / packets per delivery burst

// benchInjectVIC wires one VIC to a sink fabric that only counts packets.
func benchInjectVIC() (*sim.Kernel, *VIC, *int) {
	k := sim.NewKernel()
	sunk := new(int)
	v := New(k, 0, 0, DefaultParams(), func(dvswitch.Packet) { *sunk++ })
	v.SetBatchInject(func(pkts []dvswitch.Packet) { *sunk += len(pkts) })
	return k, v, sunk
}

// injectBurst returns a 512-word cached-DMA HostSend (one inject event per
// DMA chunk) for a simulated process to issue, and the sink's packet count.
func injectBurst() (k *sim.Kernel, send func(*sim.Proc), sunk *int) {
	k, v, sunk := benchInjectVIC()
	words := make([]Word, benchBurst)
	for i := range words {
		words[i] = Word{Dst: 0, Op: OpWrite, GC: NoGC, Addr: uint32(i), Val: uint64(i)}
	}
	return k, func(p *sim.Proc) { v.HostSend(p, DMACached, words) }, sunk
}

// pioBurst returns a 512-word direct-write HostSend (eight blocks of one
// chain each, one inject event per word) for a simulated process to issue.
func pioBurst() (k *sim.Kernel, send func(*sim.Proc)) {
	k, v, _ := benchInjectVIC()
	words := make([]Word, benchBurst)
	for i := range words {
		words[i] = Word{Dst: 0, Op: OpWrite, GC: NoGC, Addr: uint32(i), Val: uint64(i)}
	}
	return k, func(p *sim.Proc) { v.HostSend(p, PIO, words) }
}

// BenchmarkVICInject measures a 512-word cached-DMA HostSend.
func BenchmarkVICInject(b *testing.B) {
	k, send, sunk := injectBurst()
	k.Spawn("send", func(p *sim.Proc) {
		send(p) // warm the batch/payload pools
		b.ReportAllocs()
		b.ResetTimer()
		for n := 0; n < b.N; n++ {
			send(p)
		}
		b.StopTimer()
	})
	k.Run()
	if want := (b.N + 1) * benchBurst; *sunk != want {
		b.Fatalf("fabric saw %d packets, want %d", *sunk, want)
	}
}

// ejectBurst returns the delivery of a 512-packet burst through the eject
// path (the receive train), run to completion.
func ejectBurst() (deliver func(), v *VIC) {
	k, v, _ := benchInjectVIC()
	pkts := make([]dvswitch.Packet, benchBurst)
	for i := range pkts {
		pkts[i] = dvswitch.Packet{
			Src:     1,
			Dst:     0,
			Header:  EncodeHeader(0, OpWrite, NoGC, uint32(i)),
			Payload: uint64(i),
		}
	}
	return func() {
		for i := range pkts {
			v.Receive(pkts[i])
		}
		k.RunUntil(sim.Forever)
	}, v
}

// BenchmarkVICEject measures delivery of a 512-packet burst.
func BenchmarkVICEject(b *testing.B) {
	deliver, v := ejectBurst()
	deliver() // warm the receive train's pages and memory pages
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		deliver()
	}
	b.StopTimer()
	if v.Peek(benchBurst-1) != benchBurst-1 {
		b.Fatal("deliveries did not execute")
	}
}

// BenchmarkWaitGC measures what one arriving packet costs while the host
// process is parked in WaitGCZero on the counter the packet decrements: the
// delivery and receive events, the decrement, and a broadcast that must pass
// over the waiter. One op is one packet, each arriving at its own instant;
// the process is resumed once per 512-packet burst, by the zero
// notification, and the per-burst objects (the waiter, the notification
// closure) round to 0 allocs/op.
func BenchmarkWaitGC(b *testing.B) {
	k, burst := waitGCBurst(b)
	k.Spawn("host", func(p *sim.Proc) {
		burst(p, benchBurst) // warm the receive train's pages and memory pages
		b.ReportAllocs()
		b.ResetTimer()
		for left := b.N; left > 0; left -= benchBurst {
			burst(p, min(left, benchBurst))
		}
		b.StopTimer()
	})
	k.Run()
	if ev, rs := k.Counts(); rs > ev/benchBurst+2 {
		b.Fatalf("%d process resumes for %d events: the wait woke per packet", rs, ev)
	}
}

// waitGCBurst returns BenchmarkWaitGC's op: arm a counter to n, start n
// packets arriving one per switch cycle, and wait for the zero notification.
func waitGCBurst(tb testing.TB) (*sim.Kernel, func(p *sim.Proc, n int)) {
	const gc = 5
	k, v, _ := benchInjectVIC()
	all := make([]dvswitch.Packet, benchBurst)
	for i := range all {
		all[i] = gcPacket(gc, i)
	}
	feed := &gcFeed{v: v, every: dvswitch.DefaultCycleTime}
	return k, func(p *sim.Proc, n int) {
		v.setGC(gc, int64(n))
		feed.pkts = all[:n]
		feed.start()
		if !v.WaitGCZero(p, gc, sim.Forever) {
			tb.Error("counter never notified zero")
		}
	}
}

// TestBoundaryZeroAllocs holds the three benchmarks above to what their
// allocs/op column reads, deterministically and in tier-1: a warm 512-word
// send and a warm 512-packet delivery allocate nothing (the VICEject row:
// Receive's one path, the train), and a counter wait allocates nothing per
// packet. A warm 512-word direct-write send, whose
// words wait in the VIC's block and cross in chains, allocates nothing
// either.
func TestBoundaryZeroAllocs(t *testing.T) {
	// HostSend and WaitGCZero park, so they are measured from inside a
	// simulated process, after warm ops have filled the pools and grown the
	// kernel's event heap to its high-water capacity.
	inProc := func(k *sim.Kernel, warm int, op func(*sim.Proc)) (allocs float64) {
		k.Spawn("host", func(p *sim.Proc) {
			for i := 0; i < warm; i++ {
				op(p)
			}
			allocs = testing.AllocsPerRun(20, func() { op(p) })
		})
		k.Run()
		return allocs
	}
	t.Run("VICInject", func(t *testing.T) {
		k, send, _ := injectBurst()
		// Warm well past the pools' and the event heap's high-water marks.
		if got := inProc(k, 4096, send); got != 0 {
			t.Errorf("a warm %d-word HostSend allocates %v times, want 0", benchBurst, got)
		}
	})
	t.Run("VICInjectPIO", func(t *testing.T) {
		k, send := pioBurst()
		if got := inProc(k, 64, send); got != 0 {
			t.Errorf("a warm %d-word direct-write HostSend allocates %v times, want 0", benchBurst, got)
		}
	})
	t.Run("VICEject", func(t *testing.T) {
		deliver, _ := ejectBurst()
		if got := testing.AllocsPerRun(20, deliver); got != 0 {
			t.Errorf("a warm %d-packet delivery allocates %v times, want 0", benchBurst, got)
		}
	})
	t.Run("WaitGC", func(t *testing.T) {
		k, burst := waitGCBurst(t)
		got := inProc(k, 64, func(p *sim.Proc) { burst(p, benchBurst) })
		if got > 1 {
			t.Errorf("a wait over %d packets allocates %v times, want at most the burst's one zero-notification closure",
				benchBurst, got)
		}
	})
}
