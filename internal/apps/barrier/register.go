// Registry glue: expose the micro-benchmark to apprt-driven tooling (dvbench
// -list and -info, the conformance suite) at a small reference size. The
// registry's Net selector picks the representative implementation per
// backend: the intrinsic VIC barrier for Data Vortex (the reliable
// dissemination barrier when spec.Reliable is set) and MPI_Barrier for
// InfiniBand.

package barrier

import (
	"fmt"

	"repro/internal/apprt"
	"repro/internal/comm"
)

func init() {
	apprt.Register(apprt.App{
		Name:     "barrier",
		Desc:     "global barrier latency (§V, Figure 4)",
		RefNodes: 4,
		Reliable: true,
		Run: func(spec apprt.RunSpec) (apprt.Summary, error) {
			impl := DVIntrinsic
			switch {
			case spec.Net == comm.IB:
				impl = MPIBarrier
			case spec.Reliable:
				impl = DVReliable
			}
			res := RunOpts(impl, spec.Nodes, 20, Opts{
				Platform:    spec.Platform,
				WaitTimeout: spec.WaitTimeout,
			})
			return apprt.Summary{
				App: "barrier", Net: spec.Net, Nodes: res.Nodes, Elapsed: res.Latency,
				Check:   fmt.Sprintf("impl=%s completed=%d/%d", res.Impl, res.Completed, res.Iters),
				Errors:  res.Errors,
				Cluster: res.Report,
			}, nil
		},
	})
}
