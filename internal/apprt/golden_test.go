package apprt_test

// Golden-report regression tests: pinned-seed runs of gups, heat, and bfs
// on both backends, compared byte-for-byte against committed JSON. The
// goldens were generated from the pre-refactor app code; the apprt/comm
// refactor must reproduce them bit-identically — virtual times, fabric
// telemetry, and answers included. Regenerate (only for an intentional
// model change) with: go test ./internal/apprt -run Golden -update-golden

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/apps/bfs"
	"repro/internal/apps/gups"
	"repro/internal/apps/heat"
	"repro/internal/comm"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite golden report files")

// goldenRuns maps each golden file stem to a closure producing the
// marshal-ready result. Problem sizes are small but large enough to drive
// real fabric traffic on 4 nodes.
func goldenRuns(net comm.Net) map[string]func() any {
	return map[string]func() any{
		"gups": func() any {
			return gups.Run(comm.Net(net), gups.Params{
				Nodes: 4, TableWordsNode: 1 << 10, UpdatesPerNode: 1 << 9, Seed: 7,
			})
		},
		"heat": func() any {
			return heat.Run(comm.Net(net), heat.Params{
				Nodes: 4, N: 12, Steps: 6, Seed: 7,
			})
		},
		"bfs": func() any {
			return bfs.Run(comm.Net(net), bfs.Params{
				Nodes: 4, Scale: 8, NRoots: 2, Seed: 7,
			})
		},
	}
}

func TestGoldenReports(t *testing.T) {
	for _, net := range comm.Nets() {
		for stem, run := range goldenRuns(net) {
			name := fmt.Sprintf("%s_%s", stem, map[comm.Net]string{comm.DV: "dv", comm.IB: "ib"}[net])
			t.Run(name, func(t *testing.T) {
				got, err := json.MarshalIndent(run(), "", "  ")
				if err != nil {
					t.Fatalf("marshal: %v", err)
				}
				got = append(got, '\n')
				path := filepath.Join("testdata", "golden_"+name+".json")
				if *updateGolden {
					if err := os.WriteFile(path, got, 0o644); err != nil {
						t.Fatalf("write golden: %v", err)
					}
					return
				}
				want, err := os.ReadFile(path)
				if err != nil {
					t.Fatalf("read golden (regenerate with -update-golden): %v", err)
				}
				if !bytes.Equal(got, want) {
					t.Errorf("report diverged from %s (%d vs %d bytes); behavior is pinned — "+
						"investigate before regenerating", path, len(got), len(want))
				}
			})
		}
	}
}
