// Registry glue: expose the solver to apprt-driven tooling (dvbench
// -list and -info, the conformance suite) at a small reference size.

package vorticity

import (
	"fmt"

	"repro/internal/apprt"
)

func init() {
	apprt.Register(apprt.App{
		Name:     "vorticity",
		Desc:     "2-D Euler pseudo-spectral solver (Kelvin-Helmholtz, §VII)",
		RefNodes: 4,
		Run: func(spec apprt.RunSpec) (apprt.Summary, error) {
			par := Params{
				Nodes:    spec.Nodes,
				N:        16,
				Steps:    4,
				Seed:     spec.Seed,
				Platform: spec.Platform,
			}
			if err := par.sizeErr(); err != nil {
				return apprt.Summary{}, err
			}
			res := Run(spec.Net, par)
			return apprt.Summary{
				App: "vorticity", Net: res.Net, Nodes: res.Nodes, Elapsed: res.Elapsed,
				Check:   fmt.Sprintf("energy=%.6e enstrophy=%.6e", res.Energy, res.Enstrophy),
				Cluster: res.Report,
			}, nil
		},
	})
}
