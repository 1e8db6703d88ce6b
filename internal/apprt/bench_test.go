// End-to-end workload benchmarks at the conformance reference size: one
// full harness run per iteration (cluster construction, SPMD kernels, fabric
// traffic, report assembly). These are the numbers the VIC↔switch boundary
// batching is judged by — microbenchmarks prove the seam is cheap, these
// prove the win survives a whole irregular application.

package apprt_test

import (
	"testing"

	"repro/internal/apprt"
	_ "repro/internal/apps/all"
	"repro/internal/comm"
)

func benchApp(b *testing.B, name string) {
	a, ok := apprt.Get(name)
	if !ok {
		b.Fatalf("%s not registered", name)
	}
	spec := confSpec(a, comm.DV, false)
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		if _, err := a.Run(spec); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAppGUPS runs GUPS at its reference size on the Data Vortex backend.
func BenchmarkAppGUPS(b *testing.B) { benchApp(b, "gups") }

// BenchmarkAppBFS runs BFS at its reference size.
func BenchmarkAppBFS(b *testing.B) { benchApp(b, "bfs") }
