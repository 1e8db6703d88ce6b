// Registry glue: expose the benchmark to apprt-driven tooling (dvbench
// -list and -info, the conformance suite) at a small reference size.

package gups

import (
	"fmt"

	"repro/internal/apprt"
)

func init() {
	apprt.Register(apprt.App{
		Name:     "gups",
		Desc:     "HPCC random-access table updates (Figures 5-6)",
		RefNodes: 4,
		Reliable: true,
		Run: func(spec apprt.RunSpec) (apprt.Summary, error) {
			par := Params{
				Nodes:          spec.Nodes,
				TableWordsNode: 1 << 10,
				UpdatesPerNode: 1 << 9,
				Seed:           spec.Seed,
				KeepTables:     true,
				Platform:       spec.Platform,
				Reliable:       spec.Reliable,
				WaitTimeout:    spec.WaitTimeout,
			}
			if err := par.sizeErr(); err != nil {
				return apprt.Summary{}, err
			}
			res := Run(spec.Net, par)
			return apprt.Summary{
				App: "gups", Net: res.Net, Nodes: res.Nodes, Elapsed: res.Elapsed,
				Check:   fmt.Sprintf("updates=%d badwords=%d", res.Updates, Verify(par, res)),
				Errors:  res.Errors,
				Lost:    res.Lost,
				Cluster: res.Report,
			}, nil
		},
	})
}
