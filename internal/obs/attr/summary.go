package attr

import (
	"errors"
	"fmt"
	"io"
	"sort"

	"repro/internal/sim"
	"repro/internal/trace"
)

// StageAgg is the aggregate of one stage over every completed flow.
type StageAgg struct {
	Stage string
	Total sim.Time
	Max   sim.Time
}

// NodeAgg is the aggregate of completed flows issued by one source node.
type NodeAgg struct {
	Node   int
	Flows  int64
	Total  sim.Time // summed end-to-end latency
	Max    sim.Time
	Fabric sim.Time // summed fabric-stage time
}

// KindAgg is the aggregate of completed flows of one operation kind.
type KindAgg struct {
	Kind  string
	Flows int64
	Total sim.Time
}

// SlowFlow is one entry of the slowest-flow drill-down.
type SlowFlow struct {
	ID          uint32
	Src         int
	Dst         int
	Kind        string
	Epoch       int
	Issue       sim.Time
	E2E         sim.Time
	Stages      [NumStages]sim.Time
	Hops        int
	Deflections int
}

// Summary is the attribution result attached to a cluster Report. All
// aggregation is deterministic: flows are visited in id (creation) order,
// per-node and per-kind rows are in node and kind order, and rendering uses
// fmt only.
type Summary struct {
	// Begun counts traced flows; Completed those that finished; Lost those
	// that did not (fabric drop, CRC discard, FIFO overflow, or still in
	// flight at a partial-run cut); Overflow sampled flows past MaxFlows.
	Begun     int64
	Completed int64
	Lost      int64
	Overflow  int64

	E2ETotal sim.Time
	E2EMax   sim.Time

	Hops             int64
	Deflections      int64
	RetransmitEpochs int64

	Stages  [NumStages]StageAgg
	PerNode []NodeAgg
	PerKind []KindAgg
	Slowest []SlowFlow

	// Heat is the cylinder×angle deflection census (cycle-accurate runs).
	Heat *Heat `json:",omitempty"`
	// CritPath is the run's critical path when the run was traced
	// (Config.Trace; see CriticalPath).
	CritPath []CritStep `json:",omitempty"`

	log      *trace.Log // the execution trace, under Config.Trace
	traceErr error      // why there is no trace
}

// Trace returns the run's execution trace: the projection of its flows and
// compute spans that Figure 5 draws (see Config.Trace). It is an error when
// the run was not traced or kept fewer flows than it made. Nil-safe.
func (s *Summary) Trace() (*trace.Log, error) {
	if s == nil {
		return nil, errors.New("attr: the run kept no attribution summary")
	}
	return s.log, s.traceErr
}

// Finalize aggregates the tracer's flows into a Summary. Call once the
// simulation is idle, with end the virtual time the run reached; open flows
// are reported as lost. Under Config.Trace the Summary also carries the
// execution trace and its critical path. Nil-safe (returns nil).
func (t *Tracer) Finalize(end sim.Time) *Summary {
	if t == nil {
		return nil
	}
	s := &Summary{
		Begun:            int64(t.flows.Len()),
		Completed:        t.completed,
		Lost:             int64(t.flows.Len()) - t.completed,
		Overflow:         t.overflow,
		RetransmitEpochs: t.epochEvents,
		Heat:             t.heat,
	}
	for i := range s.Stages {
		s.Stages[i].Stage = Stage(i).Name()
	}
	var nodes []NodeAgg // indexed by source node, grown to the largest seen
	var kinds [numKinds]KindAgg
	for i, n := 0, t.flows.Len(); i < n; i++ {
		f := t.flows.At(i)
		if !f.Done {
			continue
		}
		e2e := f.E2E()
		s.E2ETotal += e2e
		if e2e > s.E2EMax {
			s.E2EMax = e2e
		}
		s.Hops += int64(f.Hops)
		s.Deflections += int64(f.Deflections)
		for st := 0; st < NumStages; st++ {
			s.Stages[st].Total += f.Dur[st]
			if f.Dur[st] > s.Stages[st].Max {
				s.Stages[st].Max = f.Dur[st]
			}
		}
		for len(nodes) <= int(f.Src) {
			nodes = append(nodes, NodeAgg{Node: len(nodes)})
		}
		na := &nodes[f.Src]
		na.Flows++
		na.Total += e2e
		na.Fabric += f.Dur[StageFabric]
		if e2e > na.Max {
			na.Max = e2e
		}
		kinds[f.Kind].Flows++
		kinds[f.Kind].Total += e2e
	}
	for i := range nodes {
		if nodes[i].Flows > 0 {
			s.PerNode = append(s.PerNode, nodes[i])
		}
	}
	for k := range kinds {
		if kinds[k].Flows > 0 {
			kinds[k].Kind = Kind(k).Name()
			s.PerKind = append(s.PerKind, kinds[k])
		}
	}
	s.Slowest = t.slowest(t.cfg.TopK)
	switch {
	case !t.cfg.Trace:
		s.traceErr = errors.New("attr: the run was not traced (Config.Trace)")
	case t.overflow > 0:
		s.traceErr = fmt.Errorf("attr: trace incomplete: %d flows past MaxFlows (%d)", t.overflow, t.cfg.MaxFlows)
	default:
		s.log = t.traceLog(end)
		s.CritPath = CriticalPath(s.log)
	}
	return s
}

// slower is the drill-down order: end-to-end latency descending, flow id
// ascending on ties.
func slower(a, b *Flow) bool {
	if ea, eb := a.E2E(), b.E2E(); ea != eb {
		return ea > eb
	}
	return a.ID < b.ID
}

// slowest returns the k slowest completed flows in slower order. It is a
// bounded selection: one pass over the flows keeping the k slowest seen in a
// heap whose root, the least slow of them, is the one the next slower flow
// replaces — O(n log k) and k pointers however many flows the run traced.
func (t *Tracer) slowest(k int) []SlowFlow {
	var top []*Flow // a heap once it holds k
	down := func(i int) {
		for {
			c := 2*i + 1
			if c+1 < len(top) && slower(top[c], top[c+1]) {
				c++
			}
			if c >= len(top) || !slower(top[i], top[c]) {
				return
			}
			top[i], top[c] = top[c], top[i]
			i = c
		}
	}
	for i, n := 0, t.flows.Len(); i < n && k > 0; i++ {
		f := t.flows.At(i)
		switch {
		case !f.Done:
		case len(top) < k:
			if top = append(top, f); len(top) == k {
				for j := k/2 - 1; j >= 0; j-- {
					down(j)
				}
			}
		case slower(f, top[0]):
			top[0] = f
			down(0)
		}
	}
	sort.Slice(top, func(a, b int) bool { return slower(top[a], top[b]) })
	out := make([]SlowFlow, len(top))
	for i, f := range top {
		out[i] = SlowFlow{
			ID: f.ID, Src: int(f.Src), Dst: int(f.Dst), Kind: f.Kind.Name(),
			Epoch: int(f.Epoch), Issue: f.Issue, E2E: f.E2E(), Stages: f.Dur,
			Hops: int(f.Hops), Deflections: int(f.Deflections),
		}
	}
	return out
}

// us renders a virtual duration in microseconds with fixed precision.
func us(t sim.Time) float64 { return float64(t) / float64(sim.Microsecond) }

// WriteTable renders the stage-attribution summary as fixed-width text
// tables. Output is byte-deterministic (fmt only, pre-sorted rows).
func (s *Summary) WriteTable(w io.Writer) error {
	if s == nil {
		_, err := fmt.Fprintln(w, "attr: disabled")
		return err
	}
	meanE2E := 0.0
	if s.Completed > 0 {
		meanE2E = us(s.E2ETotal) / float64(s.Completed)
	}
	if _, err := fmt.Fprintf(w,
		"flow attribution: %d flows traced, %d completed, %d lost, %d past cap\n"+
			"  mean e2e %.3f us   max e2e %.3f us   hops %d   deflections %d   retransmit epochs %d\n",
		s.Begun, s.Completed, s.Lost, s.Overflow,
		meanE2E, us(s.E2EMax), s.Hops, s.Deflections, s.RetransmitEpochs); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%-12s %14s %8s %12s %12s\n",
		"stage", "total_us", "%e2e", "mean_us", "max_us"); err != nil {
		return err
	}
	for i := range s.Stages {
		st := &s.Stages[i]
		pct, mean := 0.0, 0.0
		if s.E2ETotal > 0 {
			pct = 100 * float64(st.Total) / float64(s.E2ETotal)
		}
		if s.Completed > 0 {
			mean = us(st.Total) / float64(s.Completed)
		}
		if _, err := fmt.Fprintf(w, "%-12s %14.3f %7.1f%% %12.4f %12.3f\n",
			st.Stage, us(st.Total), pct, mean, us(st.Max)); err != nil {
			return err
		}
	}
	if len(s.PerKind) > 0 {
		if _, err := fmt.Fprintf(w, "%-12s %8s %14s %12s\n", "kind", "flows", "total_us", "mean_us"); err != nil {
			return err
		}
		for _, ka := range s.PerKind {
			mean := 0.0
			if ka.Flows > 0 {
				mean = us(ka.Total) / float64(ka.Flows)
			}
			if _, err := fmt.Fprintf(w, "%-12s %8d %14.3f %12.4f\n",
				ka.Kind, ka.Flows, us(ka.Total), mean); err != nil {
				return err
			}
		}
	}
	return nil
}

// WriteNodeTable renders the per-source-node decomposition.
func (s *Summary) WriteNodeTable(w io.Writer) error {
	if s == nil || len(s.PerNode) == 0 {
		return nil
	}
	if _, err := fmt.Fprintf(w, "%-6s %8s %12s %12s %12s %8s\n",
		"node", "flows", "mean_us", "max_us", "fabric_us", "fab%"); err != nil {
		return err
	}
	for _, na := range s.PerNode {
		mean, fabPct := 0.0, 0.0
		if na.Flows > 0 {
			mean = us(na.Total) / float64(na.Flows)
		}
		if na.Total > 0 {
			fabPct = 100 * float64(na.Fabric) / float64(na.Total)
		}
		if _, err := fmt.Fprintf(w, "%-6d %8d %12.4f %12.3f %12.3f %7.1f%%\n",
			na.Node, na.Flows, mean, us(na.Max), us(na.Fabric), fabPct); err != nil {
			return err
		}
	}
	return nil
}

// WriteSlowest renders the top-K slowest-flow drill-down.
func (s *Summary) WriteSlowest(w io.Writer) error {
	if s == nil || len(s.Slowest) == 0 {
		return nil
	}
	if _, err := fmt.Fprintf(w, "%-8s %-6s %4s %4s %5s %10s %10s  %s\n",
		"flow", "kind", "src", "dst", "epoch", "issue_us", "e2e_us", "stage_us (tx/sram/wait/fab/eject/drain) hops defl"); err != nil {
		return err
	}
	for _, f := range s.Slowest {
		if _, err := fmt.Fprintf(w,
			"%-8d %-6s %4d %4d %5d %10.3f %10.3f  %.3f/%.3f/%.3f/%.3f/%.3f/%.3f %d %d\n",
			f.ID, f.Kind, f.Src, f.Dst, f.Epoch, us(f.Issue), us(f.E2E),
			us(f.Stages[0]), us(f.Stages[1]), us(f.Stages[2]),
			us(f.Stages[3]), us(f.Stages[4]), us(f.Stages[5]),
			f.Hops, f.Deflections); err != nil {
			return err
		}
	}
	return nil
}

// WriteHeat renders the cylinder×angle deflection census as a text matrix.
func (s *Summary) WriteHeat(w io.Writer) error {
	if s == nil || s.Heat == nil {
		return nil
	}
	h := s.Heat
	if _, err := fmt.Fprintf(w, "deflection heat (cylinder x angle), total %d:\n", h.Total()); err != nil {
		return err
	}
	for c := 0; c < h.Cylinders; c++ {
		if _, err := fmt.Fprintf(w, "  cyl%-2d", c); err != nil {
			return err
		}
		for a := 0; a < h.Angles; a++ {
			if _, err := fmt.Fprintf(w, " %8d", h.At(c, a)); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintln(w); err != nil {
			return err
		}
	}
	return nil
}
