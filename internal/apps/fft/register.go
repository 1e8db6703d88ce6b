// Registry glue: expose the benchmark to apprt-driven tooling (dvbench
// -list and -info, the conformance suite) at a small reference size.

package fft

import (
	"fmt"

	"repro/internal/apprt"
	"repro/internal/fftkernel"
)

func init() {
	apprt.Register(apprt.App{
		Name:     "fft",
		Desc:     "distributed 1-D complex FFT, six-step transpose algorithm (Figure 7)",
		RefNodes: 4,
		Run: func(spec apprt.RunSpec) (apprt.Summary, error) {
			par := Params{
				Nodes:      spec.Nodes,
				LogN:       10,
				Seed:       spec.Seed,
				KeepResult: true,
				Platform:   spec.Platform,
			}
			if err := par.sizeErr(); err != nil {
				return apprt.Summary{}, err
			}
			res := Run(spec.Net, par)
			maxErr := fftkernel.MaxAbsDiff(res.Spectrum, SerialReference(par))
			return apprt.Summary{
				App: "fft", Net: res.Net, Nodes: res.Nodes, Elapsed: res.Elapsed,
				Check:   fmt.Sprintf("n=%d maxerr=%.3e", res.N, maxErr),
				Cluster: res.Report,
			}, nil
		},
	})
}
