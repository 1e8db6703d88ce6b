package sim

import (
	"fmt"
	"strings"
	"testing"
)

// chain is the test's stand-in for a dvswitch delivery train: items whose
// times and sequence numbers both rise in injection order. Armed up front
// (chained == false) every item is an AtArg event from the moment it is
// injected — the oracle. Chained, an item only reserves its number at
// injection and is armed when its predecessor fires, so the kernel holds one
// event per chain. The two must fire identically.
type chain struct {
	k          *Kernel
	chained    bool
	head, tail *chainItem
	lastAt     Time
	fired      func(id int) // runs after the successor is armed; may inject
}

type chainItem struct {
	c    *chain
	at   Time
	seq  uint64
	id   int
	next *chainItem
}

// inject adds an item due no earlier than at and strictly after the chain's
// previous item.
func (c *chain) inject(at Time, id int) {
	if at <= c.lastAt {
		at = c.lastAt + 1
	}
	c.lastAt = at
	it := &chainItem{c: c, at: at, id: id}
	if !c.chained {
		c.k.AtArg(at, fireChainItem, it)
		return
	}
	it.seq = c.k.ReserveSeq()
	if c.tail == nil {
		c.head, c.tail = it, it
		c.k.AtArgSeq(at, it.seq, fireChainItem, it)
		return
	}
	c.tail.next = it
	c.tail = it
}

func fireChainItem(a any) {
	it := a.(*chainItem)
	c := it.c
	if c.chained {
		if c.head != it {
			panic("chain item fired out of order")
		}
		c.head = it.next
		if c.head == nil {
			c.tail = nil
		} else {
			c.k.AtArgSeq(c.head.at, c.head.seq, fireChainItem, c.head)
		}
	}
	c.fired(it.id)
}

// TestAtArgSeqMatchesAtArg is the differential test of the reserve/arm pair:
// seeded random programs with same-instant ties, chains that re-inject from
// their own callbacks, and At / AtArg / daemon events in between, run once
// with every chain item armed at injection and once chained. The fire logs —
// every event's identity and time — must be identical.
func TestAtArgSeqMatchesAtArg(t *testing.T) {
	const nChains = 5
	run := func(seed uint64, chained bool) (string, int) {
		k := NewKernel()
		rng := NewRNG(seed)
		var log strings.Builder
		rec := func(kind string, id int) { fmt.Fprintf(&log, "%s%d@%d ", kind, id, k.Now()) }
		chains := make([]*chain, nChains)
		budget := 600 // re-injections left
		nextID := 0
		inject := func() {
			c := chains[rng.Intn(nChains)]
			// Short gaps make ties across chains and with the other event
			// kinds; the occasional long one queues an item far ahead.
			gap := Time(rng.Intn(4))
			if rng.Intn(8) == 0 {
				gap = Time(rng.Intn(6000))
			}
			nextID++
			c.inject(k.Now()+gap, nextID)
		}
		for i := range chains {
			chains[i] = &chain{k: k, chained: chained}
			chains[i].fired = func(id int) {
				rec("c", id)
				for n := rng.Intn(3); n > 0 && budget > 0; n-- {
					budget--
					inject()
				}
			}
		}
		for i := 0; i < 120; i++ {
			i := i
			at := Time(rng.Intn(900))
			switch i % 4 {
			case 0: // an injector: a burst into random chains
				k.At(at, func() {
					rec("i", i)
					for n := 1 + rng.Intn(6); n > 0; n-- {
						inject()
					}
				})
			case 1:
				k.At(at, func() { rec("a", i) })
			case 2:
				k.AtArg(at, func(any) { rec("l", i) }, nil)
			case 3:
				k.AtDaemon(at*8, func() { rec("d", i) })
			}
		}
		k.Run()
		return log.String(), k.PeakPending()
	}
	for seed := uint64(1); seed <= 20; seed++ {
		want, peakUpFront := run(seed, false)
		if strings.Count(want, "c") < 300 {
			t.Fatalf("seed %d: program too small to mean anything:\n%s", seed, want)
		}
		got, peak := run(seed, true)
		if got != want {
			t.Fatalf("seed %d: chained fire log differs from the armed-up-front oracle: %s",
				seed, firstDiff(got, want))
		}
		if peak > 120+nChains {
			t.Errorf("seed %d: %d events pending at once, want at most the %d fixed ones + one per chain (up front: %d)",
				seed, peak, 120, peakUpFront)
		}
	}
}

// firstDiff names the first entry at which two space-separated fire logs part.
func firstDiff(got, want string) string {
	g, w := strings.Fields(got), strings.Fields(want)
	for i := 0; i < len(g) && i < len(w); i++ {
		if g[i] != w[i] {
			return fmt.Sprintf("entry %d is %s, want %s", i, g[i], w[i])
		}
	}
	return fmt.Sprintf("%d entries, want %d", len(g), len(w))
}

// TestAtArgSeqPanics pins the two misuse panics.
func TestAtArgSeqPanics(t *testing.T) {
	for _, tc := range []struct {
		name string
		arm  func(k *Kernel)
		want string
	}{
		{"sequence number zero", func(k *Kernel) { k.AtArgSeq(10, 0, func(any) {}, nil) }, "unreserved sequence number 0"},
		{"number not issued yet", func(k *Kernel) {
			s := k.ReserveSeq()
			k.AtArgSeq(10, s+1, func(any) {}, nil)
		}, "unreserved sequence number 2"},
		{"time in the past", func(k *Kernel) {
			s := k.ReserveSeq()
			k.At(50, func() {})
			k.RunUntil(50)
			k.AtArgSeq(49, s, func(any) {}, nil)
		}, "scheduling event in the past"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			k := NewKernel()
			defer func() {
				r := recover()
				if r == nil || !strings.Contains(fmt.Sprint(r), tc.want) {
					t.Fatalf("recovered %v, want a panic containing %q", r, tc.want)
				}
				if k.PendingUser() != 0 {
					t.Errorf("the refused call left %d user events queued", k.PendingUser())
				}
			}()
			tc.arm(k)
		})
	}
}

// TestReservedNeverArmed: a reserved number that is never armed is not an
// event. It does not keep Run alive, Finish has nothing to discard for it,
// and the queue fingerprint is that of the events actually queued.
func TestReservedNeverArmed(t *testing.T) {
	for _, tc := range []struct {
		name   string
		finish func(k *Kernel) Time
	}{
		{"Run", (*Kernel).Run},
		{"RunUntil then Finish", func(k *Kernel) Time { k.RunUntil(Forever); return k.Finish() }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			k := NewKernel()
			fired := 0
			k.At(10, func() { fired++ })
			k.ReserveSeq()
			k.At(20, func() { fired++ })
			if k.PendingUser() != 2 {
				t.Fatalf("PendingUser = %d, want 2", k.PendingUser())
			}

			// The same queue, reached by arming the number and letting it fire.
			ref := NewKernel()
			ref.At(10, func() {})
			s := ref.ReserveSeq()
			ref.At(20, func() {})
			ref.AtArgSeq(5, s, func(any) {}, nil)
			ref.RunUntil(5)
			n, fp := k.QueueFingerprint()
			if rn, rfp := ref.QueueFingerprint(); n != 2 || n != rn || fp != rfp {
				t.Errorf("QueueFingerprint = (%d, %#x), want (%d, %#x)", n, fp, rn, rfp)
			}

			if end := tc.finish(k); end != 20 || fired != 2 {
				t.Errorf("ended at %v after %d events, want 20ps after 2", end, fired)
			}
			if ev, _ := k.Counts(); ev != 2 || k.PendingUser() != 0 {
				t.Errorf("fired %d events with %d pending, want 2 and 0", ev, k.PendingUser())
			}
		})
	}
}

// TestPeakPending: the high-water mark counts queued events of every kind
// and never falls.
func TestPeakPending(t *testing.T) {
	k := NewKernel()
	if k.PeakPending() != 0 {
		t.Fatalf("fresh kernel: PeakPending = %d", k.PeakPending())
	}
	for i := 1; i <= 5; i++ {
		k.At(Time(i), func() {})
	}
	k.AtDaemon(3, func() {})
	k.RunUntil(4)
	k.At(9, func() {})
	k.Run()
	if got := k.PeakPending(); got != 6 {
		t.Errorf("PeakPending = %d, want 6", got)
	}
}
