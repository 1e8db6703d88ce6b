package dv

import (
	"fmt"
)

// Group provides the subset barriers the paper attributes to the VIC ("the
// Data Vortex network provides hardware support for fast global and subset
// barriers", §V). A Group is built over an explicit member list; its
// barrier is the same gather/release tree as the intrinsic barrier, but
// runs on two ordinary group counters so any number of subsets can coexist.
//
// Construction must be symmetric: every member must create the group with
// the same member list and in the same allocation order.
type Group struct {
	e       *Endpoint
	members []int
	myIdx   int
	gcA     int // gather counter (children check-ins)
	gcB     int // release counter (parent release)
}

// NewGroup builds a subset barrier over members. The calling endpoint must
// be listed; non-members must not call Barrier.
func NewGroup(e *Endpoint, members []int) *Group {
	g := &Group{e: e, members: append([]int(nil), members...), myIdx: -1}
	for i, m := range members {
		if m == e.Rank() {
			g.myIdx = i
		}
	}
	if g.myIdx < 0 {
		panic(fmt.Sprintf("dv: rank %d not in group %v", e.Rank(), members))
	}
	g.gcA = e.AllocGC()
	g.gcB = e.AllocGC()
	e.ArmGC(g.gcA, int64(len(g.children())))
	e.ArmGC(g.gcB, 1)
	return g
}

// children returns this member's children indices in the binary tree.
func (g *Group) children() []int {
	var kids []int
	for _, c := range [2]int{2*g.myIdx + 1, 2*g.myIdx + 2} {
		if c < len(g.members) {
			kids = append(kids, c)
		}
	}
	return kids
}

// Barrier synchronises the group's members (only them; other nodes keep
// running). Implemented VIC-side, like the intrinsic barrier ("most of the
// communication is performed by the VICs without involving the host"):
// the host pays one kick, then counter-decrement packets flow up a gather
// tree and a release wave comes back down on the group's own counters.
func (g *Group) Barrier() {
	e := g.e
	if len(g.members) <= 1 {
		return
	}
	e.Proc().Wait(e.V.Params().PIOLatency) // host kicks the VIC once
	kids := g.children()
	// Gather: wait for the children to check in.
	e.waitGCAtMost(g.gcA, 0)
	if g.myIdx != 0 {
		parent := g.members[(g.myIdx-1)/2]
		g.sendDec(parent, g.gcA)
		e.waitGCAtMost(g.gcB, 0)
	}
	// Re-arm before releasing: a child's next check-in follows our release.
	e.ArmGC(g.gcA, int64(len(kids)))
	e.ArmGC(g.gcB, 1)
	for _, c := range kids {
		g.sendDec(g.members[c], g.gcB)
	}
}

// sendDec fires a single counter-decrement packet (VIC-side, like the
// intrinsic barrier's traffic).
func (g *Group) sendDec(dst, gcID int) {
	g.e.V.InjectDecGC(g.e.p, dst, gcID)
}

// waitGCAtMost parks until the counter value is <= target (no host
// notification latency: used for barrier-internal waits).
func (e *Endpoint) waitGCAtMost(gc int, target int64) {
	e.V.WaitGCAtMost(e.p, gc, target)
}
