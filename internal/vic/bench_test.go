package vic

// Boundary microbenchmarks: the VIC-side cost of moving packets across the
// inject and eject seams, isolated from switch-model time by a counting sink
// fabric. Each benchmark has a Scalar twin that runs the legacy
// one-kernel-event-per-packet path, so `go test -bench VIC` is a built-in
// batched-vs-scalar differential: the pair must agree on packets moved (the
// lockstep tests pin bit-identity; the benchmarks pin the speedup).

import (
	"testing"

	"repro/internal/dvswitch"
	"repro/internal/sim"
)

const benchBurst = 512 // words per HostSend / packets per delivery burst

// benchInjectVIC wires one VIC to a sink fabric that only counts packets.
func benchInjectVIC(scalar bool) (*sim.Kernel, *VIC, *int) {
	k := sim.NewKernel()
	sunk := new(int)
	v := New(k, 0, 0, DefaultParams(), func(dvswitch.Packet) { *sunk++ })
	v.SetScalarBoundary(scalar)
	if !scalar {
		v.SetBatchInject(func(pkts []dvswitch.Packet) { *sunk += len(pkts) })
	}
	return k, v, sunk
}

func benchVICInject(b *testing.B, scalar bool) {
	k, v, sunk := benchInjectVIC(scalar)
	words := make([]Word, benchBurst)
	for i := range words {
		words[i] = Word{Dst: 0, Op: OpWrite, GC: NoGC, Addr: uint32(i), Val: uint64(i)}
	}
	k.Spawn("send", func(p *sim.Proc) {
		v.HostSend(p, DMACached, words) // warm the batch/payload pools
		b.ReportAllocs()
		b.ResetTimer()
		for n := 0; n < b.N; n++ {
			v.HostSend(p, DMACached, words)
		}
		b.StopTimer()
	})
	k.Run()
	if want := (b.N + 1) * benchBurst; *sunk != want {
		b.Fatalf("fabric saw %d packets, want %d", *sunk, want)
	}
}

// BenchmarkVICInject measures a 512-word cached-DMA HostSend over the
// batched boundary (one inject event per DMA chunk).
func BenchmarkVICInject(b *testing.B) { benchVICInject(b, false) }

// BenchmarkVICInjectScalar is the same send over the legacy scalar boundary
// (one inject event per word) — the differential baseline.
func BenchmarkVICInjectScalar(b *testing.B) { benchVICInject(b, true) }

func benchVICEject(b *testing.B, scalar bool) {
	k, v, _ := benchInjectVIC(scalar)
	pkts := make([]dvswitch.Packet, benchBurst)
	for i := range pkts {
		pkts[i] = dvswitch.Packet{
			Src:     1,
			Dst:     0,
			Header:  EncodeHeader(0, OpWrite, NoGC, uint32(i)),
			Payload: uint64(i),
		}
	}
	deliver := func() {
		for i := range pkts {
			v.Receive(pkts[i])
		}
		k.RunUntil(sim.Forever)
	}
	deliver() // warm the receive-event pool and memory pages
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

// BenchmarkVICEject measures delivery of a 512-packet burst through the
// batched eject path (pooled receive events).
func BenchmarkVICEject(b *testing.B) { benchVICEject(b, false) }

// BenchmarkVICEjectScalar is the same burst through the legacy
// closure-per-packet eject path — the differential baseline.
func BenchmarkVICEjectScalar(b *testing.B) { benchVICEject(b, true) }

// BenchmarkWaitGC measures what one arriving packet costs while the host
// process is parked in WaitGCZero on the counter the packet decrements: the
// delivery and receive events, the decrement, and a broadcast that must pass
// over the waiter. One op is one packet, each arriving at its own instant;
// the process is resumed once per 512-packet burst, by the zero
// notification, and the per-burst objects (the waiter, the notification
// closure) round to 0 allocs/op.
func BenchmarkWaitGC(b *testing.B) {
	const gc = 5
	k, v, _ := benchInjectVIC(false)
	all := make([]dvswitch.Packet, benchBurst)
	for i := range all {
		all[i] = gcPacket(gc, i)
	}
	feed := &gcFeed{v: v, every: dvswitch.DefaultCycleTime} // one per switch cycle
	burst := func(p *sim.Proc, n int) {
		v.setGC(gc, int64(n))
		feed.pkts = all[:n]
		feed.start()
		if !v.WaitGCZero(p, gc, sim.Forever) {
			b.Error("counter never notified zero")
		}
	}
	k.Spawn("host", func(p *sim.Proc) {
		burst(p, benchBurst) // warm the receive-event pool and memory pages
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
