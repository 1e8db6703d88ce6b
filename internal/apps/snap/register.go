// Registry glue: expose the proxy to apprt-driven tooling (dvbench -list
// and -info, the conformance suite) at a small reference size.

package snap

import (
	"fmt"

	"repro/internal/apprt"
)

func init() {
	apprt.Register(apprt.App{
		Name:     "snap",
		Desc:     "SN discrete-ordinates transport proxy, KBA sweeps (Figure 9)",
		RefNodes: 4,
		Run: func(spec apprt.RunSpec) (apprt.Summary, error) {
			par := Params{
				Nodes:    spec.Nodes,
				NX:       8,
				NY:       8,
				NZ:       8,
				ChunkX:   4,
				MaxIters: 6,
				Seed:     spec.Seed,
				Platform: spec.Platform,
			}
			if err := par.sizeErr(); err != nil {
				return apprt.Summary{}, err
			}
			res := Run(spec.Net, par)
			return apprt.Summary{
				App: "snap", Net: res.Net, Nodes: res.Nodes, Elapsed: res.Elapsed,
				Check:   fmt.Sprintf("iters=%d err=%.3e balance=%.3e", res.Iters, res.Err, res.Balance),
				Cluster: res.Report,
			}, nil
		},
	})
}
