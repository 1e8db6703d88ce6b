// Registry glue: expose the benchmark to apprt-driven tooling (dvbench
// -list and -info, the conformance suite) at a small reference size.

package sort

import (
	"fmt"
	gosort "sort"

	"repro/internal/apprt"
)

func init() {
	apprt.Register(apprt.App{
		Name:     "sort",
		Desc:     "distributed sample sort (regularised contrast case, §VI)",
		RefNodes: 4,
		Run: func(spec apprt.RunSpec) (apprt.Summary, error) {
			par := Params{
				Nodes:       spec.Nodes,
				KeysPerNode: 1 << 10,
				Seed:        spec.Seed,
				KeepKeys:    true,
				Platform:    spec.Platform,
			}
			res := Run(spec.Net, par)
			var bad, total int
			var sum uint64
			for _, run := range res.Output {
				if !gosort.SliceIsSorted(run, func(i, j int) bool { return run[i] < run[j] }) {
					bad++
				}
				total += len(run)
				for _, k := range run {
					sum += k
				}
			}
			return apprt.Summary{
				App: "sort", Net: res.Net, Nodes: res.Nodes, Elapsed: res.Elapsed,
				Check:   fmt.Sprintf("keys=%d checksum=%016x", total, sum),
				Errors:  bad,
				Cluster: res.Report,
			}, nil
		},
	})
}
