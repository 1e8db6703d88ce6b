// The workload registry. Each package under internal/apps registers its
// workload in an init function; drivers iterate Apps() instead of
// hand-maintaining lists, and the conformance suite runs every entry on
// every backend.

package apprt

import (
	"fmt"
	"sort"

	"repro/internal/cluster"
	"repro/internal/comm"
	"repro/internal/sim"
)

// Summary is the registry-level outcome of one reference run: enough to
// print a line, assert determinism, and dig into the full testbed report.
type Summary struct {
	// App is the registry name of the workload.
	App string
	// Net and Nodes echo the run configuration.
	Net   comm.Net
	Nodes int
	// Elapsed is the measured span of the run.
	Elapsed sim.Time
	// Check is an app-specific deterministic fingerprint (answer checksum,
	// residual, sorted-flag, ...) used by determinism assertions.
	Check string
	// Errors counts validation failures the workload detected.
	Errors int
	// Lost counts packets the run observed as lost (fault campaigns).
	Lost int64
	// Cluster is the full testbed report for the run.
	Cluster *cluster.Report
}

// App is one registered workload: identity, a reference problem size, and
// a runner that maps a harness RunSpec onto the app's own parameters.
type App struct {
	// Name is the registry key (lower-case, stable; used by drivers).
	Name string
	// Desc is a one-line description for listings.
	Desc string
	// RefNodes is the reference cluster size conformance runs use.
	RefNodes int
	// Reliable reports whether the workload supports spec.Reliable (a
	// reliable-delivery Data Vortex variant exists).
	Reliable bool
	// Run executes the workload at a small reference size under spec.
	Run func(spec RunSpec) (Summary, error)
}

var registry = map[string]App{}

// Register installs a workload. Called from app package init functions;
// duplicate names panic (two packages claiming one workload is a bug). The
// installed Run validates the spec first, so every driver gets a
// *cluster.ConfigError back before any cluster is built.
func Register(a App) {
	if a.Name == "" || a.Run == nil {
		panic("apprt: Register needs a Name and a Run func")
	}
	if _, dup := registry[a.Name]; dup {
		panic(fmt.Sprintf("apprt: duplicate app %q", a.Name))
	}
	run := a.Run
	a.Run = func(spec RunSpec) (Summary, error) {
		if err := spec.Validate(); err != nil {
			return Summary{}, err
		}
		return run(spec)
	}
	registry[a.Name] = a
}

// Apps returns every registered workload sorted by name.
func Apps() []App {
	out := make([]App, 0, len(registry))
	for _, a := range registry {
		out = append(out, a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Get looks up a workload by name.
func Get(name string) (App, bool) {
	a, ok := registry[name]
	return a, ok
}
