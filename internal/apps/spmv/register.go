// Registry glue: expose the benchmark to apprt-driven tooling (dvbench
// -list and -info, the conformance suite) at a small reference size.

package spmv

import (
	"fmt"
	"math"

	"repro/internal/apprt"
)

func init() {
	apprt.Register(apprt.App{
		Name:     "spmv",
		Desc:     "sparse matrix-vector multiply with ghost gathers (§V)",
		RefNodes: 4,
		Run: func(spec apprt.RunSpec) (apprt.Summary, error) {
			par := Params{
				Nodes:      spec.Nodes,
				Scale:      8,
				Iters:      3,
				Seed:       spec.Seed,
				KeepVector: true,
				Platform:   spec.Platform,
			}
			if err := par.sizeErr(); err != nil {
				return apprt.Summary{}, err
			}
			res := Run(spec.Net, par)
			ref := SerialReference(par)
			var maxerr float64
			errs := 0
			for i, v := range res.Vector {
				if d := math.Abs(v - ref[i]); d > maxerr {
					maxerr = d
				}
				if math.Abs(v-ref[i]) > 1e-9 {
					errs++
				}
			}
			return apprt.Summary{
				App: "spmv", Net: res.Net, Nodes: res.Nodes, Elapsed: res.Elapsed,
				Check:   fmt.Sprintf("iters=%d ghost=%d maxerr=%.3e", res.Iters, res.GhostWords, maxerr),
				Errors:  errs,
				Cluster: res.Report,
			}, nil
		},
	})
}
