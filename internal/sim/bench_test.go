package sim

import "testing"

// BenchmarkHandoff is the park/resume round trip every blocking call of a
// simulated node pays: 32 processes each looping Proc.Wait, the shape of the
// repository benchmark's sim.handoff_ns driver. One op is one round trip
// (its wake-up event included).
func BenchmarkHandoff(b *testing.B) {
	const procs = 32
	k := NewKernel()
	for i := 0; i < procs; i++ {
		trips := b.N / procs
		if i < b.N%procs {
			trips++
		}
		k.Spawn("waiter", func(p *Proc) {
			for n := 0; n < trips; n++ {
				p.Wait(Nanosecond)
			}
		})
	}
	b.ReportAllocs()
	b.ResetTimer()
	k.Run()
}

// BenchmarkSpawn starts and finishes short-lived processes, the per-node
// cost every small run pays. One op is one process.
func BenchmarkSpawn(b *testing.B) {
	const batch = 64
	b.ReportAllocs()
	for done := 0; done < b.N; done += batch {
		k := NewKernel()
		for i := 0; i < min(batch, b.N-done); i++ {
			k.Spawn("short", func(p *Proc) {})
		}
		k.Run()
	}
}

// BenchmarkEventLoop is the kernel's one loop on the shape of the repository
// benchmark's sim.event_ns driver: 64 pending self-rescheduling AfterArg
// events, each firing again within 1 µs, pumped through Run or through
// RunUntilN in batches of 4096. One op is one fired event.
func BenchmarkEventLoop(b *testing.B) {
	const pending, warm = 64, 4 * 64
	// loop queues pending events that reschedule themselves until events
	// more have been scheduled, then fires warm of them to fill the pool.
	loop := func(events int) *Kernel {
		k := NewKernel()
		rng := NewRNG(1)
		var fire func(any)
		fire = func(a any) {
			if events > 0 {
				events--
				k.AfterArg(1+Time(rng.Uint64n(uint64(Microsecond))), fire, a)
			}
		}
		for i := 0; i < pending; i++ {
			fire(nil)
		}
		k.RunUntilN(Forever, warm)
		return k
	}
	b.Run("Run", func(b *testing.B) {
		k := loop(b.N + warm)
		b.ReportAllocs()
		b.ResetTimer()
		k.Run()
	})
	b.Run("RunUntilN", func(b *testing.B) {
		k := loop(b.N + warm)
		b.ReportAllocs()
		b.ResetTimer()
		for fired := 0; fired < b.N; {
			fired += k.RunUntilN(Forever, 4096)
		}
	})
}
