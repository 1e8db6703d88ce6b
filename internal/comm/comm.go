// Package comm is the backend-neutral layer of the reproduction: one Net
// enum naming the interconnects the paper compares, and one Backend
// interface carrying what every workload shares whichever fabric it runs on
// (identity, barriers, the all-to-all) beside the fabric's own programming
// model — the Data Vortex API endpoint (internal/dv over internal/vic, over
// either switch engine) or the MPI communicator (internal/mpi over
// internal/ib). An app names a comm.Net and receives a comm.Backend from the
// apprt harness, and writes its traffic in the endpoint's own vocabulary
// (vic.Word, mpi.Request and the mpi byte codecs).
package comm

import (
	"fmt"

	"repro/internal/cluster"
)

// Net selects the network under test — the comparison axis of the whole
// paper. It replaces the private Net enums formerly duplicated across every
// app package.
type Net int

const (
	// DV is the Data Vortex fabric driven through the paper's §III API.
	DV Net = iota
	// IB is MPI over the FDR InfiniBand fat tree.
	IB
)

// String names the network as the paper's figures label it.
func (n Net) String() string {
	if n == DV {
		return "Data Vortex"
	}
	return "Infiniband"
}

// Stacks maps the network to the cluster stack(s) a run must instantiate.
func (n Net) Stacks() cluster.Stack {
	if n == DV {
		return cluster.StackDV
	}
	return cluster.StackIB
}

// Nets lists the networks in definition order.
func Nets() []Net { return []Net{DV, IB} }

// ParseNet maps a command-line spelling ("dv", "ib", or a paper label) to
// its Net.
func ParseNet(s string) (Net, error) {
	switch s {
	case "dv", "DV", "datavortex", "Data Vortex":
		return DV, nil
	case "ib", "IB", "infiniband", "Infiniband", "mpi":
		return IB, nil
	}
	return 0, fmt.Errorf("comm: unknown network %q (want dv or ib)", s)
}
