package check

import (
	"sort"

	"repro/internal/sim"
	"repro/internal/vic"
)

// vicID keys the per-VIC state by identity.
type vicID = *vic.VIC

// memKey identifies one observed DV-memory write. DV memory is
// last-writer-wins, so the write log records (addr, value) occurrences, not
// final contents: a word "was delivered" iff its (addr, value) was written
// at least once at the destination.
type memKey struct {
	addr uint32
	val  uint64
}

// vicState is the checker's shadow accounting for one VIC.
type vicState struct {
	v vicID

	// expOut/expIn are independently-counted PCIe bytes (host→VIC and
	// VIC→host), compared against the VIC's own telemetry at Finalize.
	expOut, expIn int64

	// fifo holds accepted surprise pushes not yet popped by the host, in
	// arrival order.
	fifo sim.Ring[uint64]

	// arm records each group counter's most recent host arm value. Counters
	// armed positive follow the arm-before-arrival discipline and must never
	// go negative; counters armed at zero are interpreted arrival counts
	// (shmem's counting-semaphore pattern) and legally count below zero.
	arm map[int]int64

	// mem is the write log for exactly-once verification; nil unless
	// reliable checking is enabled.
	mem map[memKey]int64
}

func (c *Checker) state(v *vic.VIC) *vicState {
	s := c.vics[v]
	if s == nil {
		s = &vicState{v: v}
		if c.cfg.Reliable {
			s.mem = make(map[memKey]int64)
		}
		c.vics[v] = s
	}
	return s
}

// AttachVIC installs the checker on a VIC's observation seams.
func (c *Checker) AttachVIC(v *vic.VIC) {
	if !c.cfg.VIC && !c.cfg.Reliable {
		return
	}
	v.SetChecker(c)
	c.state(v)
}

// GCUpdate implements vic.Checker: a group counter armed to a positive
// value must never go negative — the arm-before-arrival discipline the
// paper's completion detection rests on guarantees every decrement was
// pre-counted. Counters last armed at zero are exempt: that is the
// counting-semaphore pattern, where the host interprets the (negative)
// arrival count instead of waiting for zero.
func (c *Checker) GCUpdate(v *vic.VIC, gc int, val int64, armed bool) {
	if !c.cfg.VIC {
		return
	}
	s := c.state(v)
	if armed {
		if s.arm == nil {
			s.arm = make(map[int]int64)
		}
		s.arm[gc] = val
		return
	}
	if val < 0 && s.arm[gc] > 0 {
		c.violate("vic", "gc-negative", -1,
			"vic %d group counter %d (armed %d) fell to %d", v.ID, gc, s.arm[gc], val)
	}
}

// FIFOPush implements vic.Checker.
func (c *Checker) FIFOPush(v *vic.VIC, src int, val uint64, dropped bool) {
	if !c.cfg.VIC || dropped {
		return
	}
	c.state(v).fifo.Push(val)
}

// FIFOPop implements vic.Checker: the host must observe surprise words in
// the order the VIC accepted them.
func (c *Checker) FIFOPop(v *vic.VIC, val uint64) {
	if !c.cfg.VIC {
		return
	}
	fifo := &c.state(v).fifo
	head, ok := fifo.Pop()
	if !ok {
		c.violate("vic", "fifo-order", -1,
			"vic %d popped %#x with no accepted push outstanding", v.ID, val)
		return
	}
	if head == val {
		return
	}
	c.violate("vic", "fifo-order", -1,
		"vic %d popped %#x, expected %#x (FIFO order)", v.ID, val, head)
	// Resynchronise on the popped value so one reorder reports once instead
	// of cascading down the rest of the queue: head goes back in, and one
	// turn of the ring behind it drops the first word equal to val.
	fifo.Push(head)
	found := false
	for n := fifo.Len() - 1; n > 0; n-- {
		w, _ := fifo.Pop()
		if !found && w == val {
			found = true
			continue
		}
		fifo.Push(w)
	}
}

// MemWrite implements vic.Checker: feed the destination write log backing
// the reliable layer's exactly-once verification.
func (c *Checker) MemWrite(v *vic.VIC, addr uint32, val uint64) {
	if s := c.state(v); s.mem != nil {
		s.mem[memKey{addr: addr, val: val}]++
	}
}

// HostSent implements vic.Checker.
func (c *Checker) HostSent(v *vic.VIC, mode vic.SendMode, words int) {
	if !c.cfg.VIC {
		return
	}
	c.state(v).expOut += int64(words * mode.WireBytes())
}

// HostRead implements vic.Checker.
func (c *Checker) HostRead(v *vic.VIC, words int) {
	if !c.cfg.VIC {
		return
	}
	c.state(v).expIn += int64(words) * 8
}

// HostWrote implements vic.Checker.
func (c *Checker) HostWrote(v *vic.VIC, words int) {
	if !c.cfg.VIC {
		return
	}
	c.state(v).expOut += int64(words) * 8
}

// FIFODrained implements vic.Checker.
func (c *Checker) FIFODrained(v *vic.VIC, words int) {
	if !c.cfg.VIC {
		return
	}
	c.state(v).expIn += int64(words) * 8
}

// finalizeVICs compares the checker's independent PCIe byte counts against
// each VIC's own telemetry: every byte the host believes it moved must be a
// byte the VIC accounted, in both directions.
func (c *Checker) finalizeVICs() {
	if !c.cfg.VIC || len(c.vics) == 0 {
		return
	}
	states := make([]*vicState, 0, len(c.vics))
	for _, s := range c.vics {
		states = append(states, s)
	}
	sort.Slice(states, func(i, j int) bool { return states[i].v.ID < states[j].v.ID })
	for _, s := range states {
		st := s.v.Stats()
		if st.PCIeBytesOut != s.expOut {
			c.violate("vic", "pcie-bytes", -1,
				"vic %d host→VIC: checker counted %d bytes, VIC reports %d",
				s.v.ID, s.expOut, st.PCIeBytesOut)
		}
		if st.PCIeBytesIn != s.expIn {
			c.violate("vic", "pcie-bytes", -1,
				"vic %d VIC→host: checker counted %d bytes, VIC reports %d",
				s.v.ID, s.expIn, st.PCIeBytesIn)
		}
	}
}
