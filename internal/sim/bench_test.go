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
