// Registry glue: expose the benchmark to apprt-driven tooling (dvbench
// -list and -info, the conformance suite) at a small reference size.

package bfs

import (
	"fmt"

	"repro/internal/apprt"
	"repro/internal/sim"
)

func init() {
	apprt.Register(apprt.App{
		Name:     "bfs",
		Desc:     "Graph500 breadth-first search on a Kronecker graph (Figure 8)",
		RefNodes: 4,
		Run: func(spec apprt.RunSpec) (apprt.Summary, error) {
			par := Params{
				Nodes:    spec.Nodes,
				Scale:    8,
				NRoots:   2,
				Seed:     spec.Seed,
				Platform: spec.Platform,
			}
			if err := par.sizeErr(); err != nil {
				return apprt.Summary{}, err
			}
			res := Run(spec.Net, par)
			var elapsed, edges int64
			for _, s := range res.Searches {
				elapsed += int64(s.Elapsed)
				edges += s.Edges
			}
			return apprt.Summary{
				App: "bfs", Net: res.Net, Nodes: res.Nodes, Elapsed: sim.Time(elapsed),
				Check:   fmt.Sprintf("searches=%d edges=%d", len(res.Searches), edges),
				Cluster: res.Report,
			}, nil
		},
	})
}
