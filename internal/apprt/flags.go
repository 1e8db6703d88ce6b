// The run-spec flag set. Every driver that runs a registered app (dvbench,
// dvcheck, dvprof) declares these six flags through BindRunFlags, so each
// flag has one name, one default and one parser, and a spec built from them
// is validated once, by RunSpec.Validate.

package apprt

import (
	"cmp"
	"flag"
	"fmt"
	"strings"

	"repro/internal/cluster"
	"repro/internal/comm"
)

// RunFlags holds the run-spec flags of one parsed flag set.
type RunFlags struct {
	// App names one registered app; empty selects every app.
	App string
	// Nodes is the cluster size; 0 stands for the app's reference size.
	Nodes int
	// Net lists backends, comma-separated, in comm.ParseNet's spellings;
	// empty selects every backend.
	Net string
	// Seed pins the run's randomness.
	Seed uint64
	// Cycle routes Data Vortex traffic through the cycle-accurate switch.
	Cycle bool
	// Planes is the Data Vortex switch plane count (0 and 1: one plane).
	Planes int
}

// BindRunFlags declares -app, -nodes, -net, -seed, -cycle and -planes on
// fs. Their values are read after fs is parsed.
func BindRunFlags(fs *flag.FlagSet) *RunFlags {
	f := &RunFlags{}
	fs.StringVar(&f.App, "app", "", "registered app to run (see -list)")
	fs.IntVar(&f.Nodes, "nodes", 0, "cluster nodes (0 = the app's reference size)")
	fs.StringVar(&f.Net, "net", "", "comma-separated backends: dv, ib (empty = every backend)")
	fs.Uint64Var(&f.Seed, "seed", 1, "RNG seed of the run")
	fs.BoolVar(&f.Cycle, "cycle", false, "route Data Vortex traffic through the cycle-accurate switch core")
	fs.IntVar(&f.Planes, "planes", 0, "Data Vortex switch planes behind each VIC boundary (0 or 1 = one plane)")
	return f
}

// Apps returns the app -app names, or every registered app when it is empty.
func (f *RunFlags) Apps() ([]App, error) {
	if f.App == "" {
		return Apps(), nil
	}
	a, ok := Get(f.App)
	if !ok {
		return nil, fmt.Errorf("unknown app %q (see -list)", f.App)
	}
	return []App{a}, nil
}

// Nets returns the backends -net lists, in its order, or every backend when
// it is empty.
func (f *RunFlags) Nets() ([]comm.Net, error) {
	if f.Net == "" {
		return comm.Nets(), nil
	}
	var nets []comm.Net
	for _, s := range strings.Split(f.Net, ",") {
		n, err := comm.ParseNet(strings.TrimSpace(s))
		if err != nil {
			return nil, err
		}
		nets = append(nets, n)
	}
	return nets, nil
}

// Spec returns the validated spec of one run on net, where -nodes 0 stands
// for refNodes. Errors are *cluster.ConfigError.
func (f *RunFlags) Spec(net comm.Net, refNodes int) (RunSpec, error) {
	spec := RunSpec{Net: net, Nodes: cmp.Or(f.Nodes, refNodes), Seed: f.Seed,
		Platform: cluster.Platform{CycleAccurate: f.Cycle, DVPlanes: f.Planes}}
	return spec, spec.Validate()
}
