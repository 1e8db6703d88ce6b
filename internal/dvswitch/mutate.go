package dvswitch

// Mutation selects a deliberate, well-understood defect to plant in the
// switch core. Mutations exist solely to validate the invariant layer
// (internal/check): a checker that cannot catch a planted defect cannot be
// trusted to catch an accidental one. Production code never sets a mutation;
// the zero value is defect-free and costs one integer test at each seam.
type Mutation uint32

const (
	// MutDropDeflectSignal makes a descend not test its target's deflection
	// signal (the target's next-occupancy bit), so a descending packet can
	// land on a node a same-cylinder move already claimed; the overwritten
	// packet leaks from the occupancy grid.
	MutDropDeflectSignal Mutation = 1 << iota
	// MutBitOffByOne makes the descend decision resolve the wrong height
	// bit (cylinder index off by one), violating the resolved-prefix
	// property self-routing rests on. No-op when the switch has a single
	// resolving cylinder (Heights == 2).
	MutBitOffByOne
	// MutSkipDropCount loses fault-dropped packets without counting them in
	// Stats.Dropped, breaking per-cycle packet conservation.
	MutSkipDropCount
	// MutDoubleDeliver invokes the Deliver callback twice per ejection,
	// duplicating every packet at the fabric boundary.
	MutDoubleDeliver
	// MutStickyOutputRing keeps packets circling the output ring forever
	// instead of ejecting at the destination angle (a livelock).
	MutStickyOutputRing
)

// SetMutation plants (or with 0 clears) deliberate defects in the core,
// rebuilding the routing table for the routing mutations. Testing only; see
// Mutation.
func (c *Core) SetMutation(m Mutation) {
	c.mut = m
	c.buildTab()
}
