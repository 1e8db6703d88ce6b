// Replays the committed fuzz-derived regression corpus
// (testdata/regression_corpus.txt) on both backends with the full invariant
// layer enabled. Every case is a (app, seed, fault plan) combination that a
// fuzz or dvcheck sweep found interesting — a past bug, a boundary, or a
// stress region — frozen so it keeps getting re-checked forever.

package apprt_test

import (
	"bufio"
	"fmt"
	"os"
	"strconv"
	"strings"
	"testing"

	"repro/internal/apprt"
	_ "repro/internal/apps/all"
	"repro/internal/check"
	"repro/internal/cluster"
	"repro/internal/comm"
	"repro/internal/faultplan"
	"repro/internal/sim"
)

// corpusCase is one parsed line of the regression corpus.
type corpusCase struct {
	app     string
	seed    uint64
	drop    float64
	corrupt float64
	fifoCap int
	dead    bool
	cycle   bool
	line    int
}

func (cc corpusCase) name() string {
	parts := []string{cc.app, "seed" + strconv.FormatUint(cc.seed, 10)}
	if cc.drop > 0 {
		parts = append(parts, "drop")
	}
	if cc.corrupt > 0 {
		parts = append(parts, "corrupt")
	}
	if cc.fifoCap > 0 {
		parts = append(parts, "squeeze")
	}
	if cc.dead {
		parts = append(parts, "dead")
	}
	if cc.cycle {
		parts = append(parts, "cycle")
	}
	return strings.Join(parts, "-")
}

func (cc corpusCase) lossy() bool {
	return cc.drop > 0 || cc.corrupt > 0 || cc.fifoCap > 0 || cc.dead
}

// plan builds the case's fault plan, or nil for a clean run.
func (cc corpusCase) plan() *faultplan.Plan {
	if !cc.lossy() {
		return nil
	}
	p := &faultplan.Plan{
		Seed:         cc.seed,
		DropProb:     cc.drop,
		CorruptProb:  cc.corrupt,
		FIFOCapacity: cc.fifoCap,
	}
	if cc.dead {
		p.DeadNodes = []faultplan.DeadNode{
			{Cyl: 1, Height: int(cc.seed % 4), Angle: int(cc.seed % 3), Kill: 2 * sim.Microsecond},
		}
	}
	return p
}

func loadRegressionCorpus(t *testing.T) []corpusCase {
	t.Helper()
	f, err := os.Open("testdata/regression_corpus.txt")
	if err != nil {
		t.Fatalf("open corpus: %v", err)
	}
	defer f.Close()
	var cases []corpusCase
	sc := bufio.NewScanner(f)
	for ln := 1; sc.Scan(); ln++ {
		line := sc.Text()
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		if len(fields) != 7 {
			t.Fatalf("corpus line %d: want 7 fields, got %d: %q", ln, len(fields), line)
		}
		var cc corpusCase
		cc.app, cc.line = fields[0], ln
		parse := func(what, s string, dst *float64) {
			v, err := strconv.ParseFloat(s, 64)
			if err != nil {
				t.Fatalf("corpus line %d: bad %s %q: %v", ln, what, s, err)
			}
			*dst = v
		}
		seed, err := strconv.ParseUint(fields[1], 10, 64)
		if err != nil {
			t.Fatalf("corpus line %d: bad seed %q: %v", ln, fields[1], err)
		}
		cc.seed = seed
		parse("drop", fields[2], &cc.drop)
		parse("corrupt", fields[3], &cc.corrupt)
		fc, err := strconv.Atoi(fields[4])
		if err != nil {
			t.Fatalf("corpus line %d: bad fifocap %q: %v", ln, fields[4], err)
		}
		cc.fifoCap = fc
		cc.dead = fields[5] == "1"
		cc.cycle = fields[6] == "1"
		cases = append(cases, cc)
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("read corpus: %v", err)
	}
	if len(cases) == 0 {
		t.Fatal("regression corpus is empty")
	}
	return cases
}

func TestRegressionCorpus(t *testing.T) {
	for _, cc := range loadRegressionCorpus(t) {
		a, ok := apprt.Get(cc.app)
		if !ok {
			t.Fatalf("corpus line %d names unknown app %q", cc.line, cc.app)
		}
		if cc.lossy() && !a.Reliable {
			t.Fatalf("corpus line %d: lossy case on non-reliable app %q", cc.line, cc.app)
		}
		for _, net := range comm.Nets() {
			cc, a, net := cc, a, net
			t.Run(fmt.Sprintf("%s/%s", cc.name(), net), func(t *testing.T) {
				if testing.Short() && cc.cycle {
					t.Skip("cycle-accurate corpus replay in -short mode")
				}
				spec := apprt.RunSpec{
					Net:      net,
					Nodes:    a.RefNodes,
					Seed:     cc.seed,
					Platform: cluster.Platform{CycleAccurate: cc.cycle, Check: check.All()},
				}
				if plan := cc.plan(); plan != nil {
					spec.Reliable = true
					spec.WaitTimeout = 500 * sim.Microsecond
					spec.Faults = plan
				}
				sum, err := a.Run(spec)
				if err != nil {
					t.Fatalf("run failed: %v", err)
				}
				if sum.Cluster == nil || sum.Cluster.Checks == nil {
					t.Fatal("no invariant result attached to the summary")
				}
				if res := sum.Cluster.Checks; !res.Ok() {
					t.Fatalf("invariant violations:\n%s", res)
				}
			})
		}
	}
}
