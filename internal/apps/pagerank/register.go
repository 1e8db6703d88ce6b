// Registry glue: expose the benchmark to apprt-driven tooling (dvbench
// -list and -info, the conformance suite) at a small reference size.

package pagerank

import (
	"fmt"

	"repro/internal/apprt"
)

func init() {
	apprt.Register(apprt.App{
		Name:     "pagerank",
		Desc:     "distributed PageRank over Kronecker graphs (shmem PGAS port)",
		RefNodes: 4,
		Run: func(spec apprt.RunSpec) (apprt.Summary, error) {
			par := Params{
				Nodes:    spec.Nodes,
				Scale:    8,
				MaxIters: 8,
				Seed:     spec.Seed,
				Platform: spec.Platform,
			}
			if err := par.sizeErr(); err != nil {
				return apprt.Summary{}, err
			}
			res := Run(spec.Net, par)
			return apprt.Summary{
				App: "pagerank", Net: res.Net, Nodes: res.Nodes, Elapsed: res.Elapsed,
				Check:   fmt.Sprintf("iters=%d delta=%.6e", res.Iters, res.Delta),
				Cluster: res.Report,
			}, nil
		},
	})
}
