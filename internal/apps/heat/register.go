// Registry glue: expose the solver to apprt-driven tooling (dvbench
// -list and -info, the conformance suite) at a small reference size.

package heat

import (
	"fmt"

	"repro/internal/apprt"
)

func init() {
	apprt.Register(apprt.App{
		Name:     "heat",
		Desc:     "3-D FTCS heat-equation solver, six-face halo exchange (§VII)",
		RefNodes: 4,
		Reliable: true,
		Run: func(spec apprt.RunSpec) (apprt.Summary, error) {
			par := Params{
				Nodes:       spec.Nodes,
				N:           12,
				Steps:       6,
				Seed:        spec.Seed,
				KeepField:   true,
				Platform:    spec.Platform,
				Reliable:    spec.Reliable,
				WaitTimeout: spec.WaitTimeout,
			}
			if err := par.sizeErr(); err != nil {
				return apprt.Summary{}, err
			}
			res := Run(spec.Net, par)
			return apprt.Summary{
				App: "heat", Net: res.Net, Nodes: res.Nodes, Elapsed: res.Elapsed,
				Check:   fmt.Sprintf("maxerr=%.3e timeouts=%d", MaxErr(par, res.Field), res.Timeouts),
				Errors:  res.Errors,
				Lost:    res.Timeouts,
				Cluster: res.Report,
			}, nil
		},
	})
}
