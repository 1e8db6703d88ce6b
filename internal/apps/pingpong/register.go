// Registry glue: expose the micro-benchmark to apprt-driven tooling (dvbench
// -list and -info, the conformance suite) at a small reference size. The
// registry's Net selector picks the representative mode per backend: the
// DMA/Cached path for Data Vortex (the paper's best performer) and MPI for
// InfiniBand.

package pingpong

import (
	"fmt"

	"repro/internal/apprt"
	"repro/internal/comm"
)

func init() {
	apprt.Register(apprt.App{
		Name:     "pingpong",
		Desc:     "two-node round-trip bandwidth (§V, Figure 3)",
		RefNodes: 2,
		Run: func(spec apprt.RunSpec) (apprt.Summary, error) {
			mode := DVDMACached
			if spec.Net == comm.IB {
				mode = MPIIB
			}
			res := Run(mode, Params{Words: 64, Iters: 20, Seed: spec.Seed, Platform: spec.Platform})
			return apprt.Summary{
				App: "pingpong", Net: spec.Net, Nodes: 2, Elapsed: res.RTT,
				Check:   fmt.Sprintf("mode=%s words=%d bw=%.3fGB/s", res.Mode, res.Words, res.Bandwidth/1e9),
				Cluster: res.Report,
			}, nil
		},
	})
}
