package sim

import "math/bits"

// calQ is the kernel's event queue: a calendar (bucket) queue keyed on a fixed
// time grain, with a binary-heap overflow for events beyond the ring horizon.
// The switch's angle-synchronous cycle is the natural grain — cluster runs
// set it to the fabric cycle time — so a bucket holds roughly the events of
// one switch cycle and push/pop touch a handful of entries instead of sifting
// a run-sized global heap (binary-heap push/pop was ~44% of FastModelInject
// cycles before this queue replaced it).
//
// The ring is sized for near-future traffic, and the queue stays cheap only
// while most events land in it: one past the horizon costs an overflow-heap
// push, a pop and a second bucket push. A component that knows its events
// far ahead should therefore not queue them far ahead. The fast switch model
// is the case in point — it used to queue every delivery of a DMA scatter at
// injection, ~1 M events beyond the horizon in a 256-node all-to-all — and
// now keeps them in per-port trains of its own, with only each train's head
// here (ReserveSeq/AtArgSeq; see dvswitch.deliveryEvent). Because the order
// below is a function of (at, seq) alone, an event that joins the queue late
// under a number reserved early pops exactly where it always would have.
//
// Ordering contract: pop returns events in exactly the total (at, seq) order
// the previous global binary heap produced. The structure is pure arrangement
// — QueueFingerprint, delivery order, and Reports are byte-identical to the
// heap-backed kernel at any grain.
//
// Layout: buckets[cursor] covers virtual-time window [base, base+grain); ring
// offset o covers [base+o·grain, base+(o+1)·grain). The ring spans a single
// epoch — no modulo ambiguity — and events at or beyond the horizon
// (base + len(buckets)·grain) wait in the overflow heap, from which they are
// promoted as the cursor advances. Two deliberate asymmetries keep the
// invariants simple:
//
//   - an event earlier than base (possible when a RunUntil peek moved the
//     cursor up to a head beyond its limit and the caller then schedules
//     before that head) is clamped into the cursor bucket, which is always
//     fully drained before the cursor advances, so the (at, seq) heap inside
//     the bucket restores the total order;
//   - overflow events are promoted lazily at peek time; a newly promotable
//     event is by construction at or beyond the old horizon and therefore
//     never beats the bucket a previous peek selected.
type calQ struct {
	grain    Time
	base     Time        // window start of buckets[cursor]
	cursor   int         // ring index whose window starts at base
	buckets  []eventHeap // power-of-two ring of (at, seq) mini-heaps
	nonEmpty []uint64    // bitmap over ring positions
	overflow eventHeap   // events at or beyond the ring horizon
	ringN    int         // events currently in ring buckets
	n        int         // total events (ring + overflow)

	// min caches the queue's head (valid when minOK): push maintains it in
	// O(1); pop invalidates it and the next peek or pop recomputes it via
	// findMin.
	min   heapEnt
	minOK bool
}

// calBuckets is the ring size: large enough that a run's near-future traffic
// (fabric flights, VIC pipelines, host waits) lands in the ring, and small
// enough that the ring's memory stays trivial.
const calBuckets = 512

// defaultGrain is used when no one hints a timescale (SetTimeGrain): one
// switch cycle of the calibrated fabric, which is also what cluster runs set
// explicitly.
const defaultGrain = 1818 * Picosecond

func newCalQ(grain Time) *calQ {
	if grain <= 0 {
		grain = defaultGrain
	}
	return &calQ{
		grain:    grain,
		buckets:  make([]eventHeap, calBuckets),
		nonEmpty: make([]uint64, calBuckets/64),
	}
}

func (q *calQ) len() int { return q.n }

// push inserts e.
func (q *calQ) push(e *event) {
	ent := heapEnt{e.at, e.seq, e}
	if q.n == 0 {
		// Empty queue: re-anchor the window at the event so it lands in the
		// ring regardless of how far time advanced since the queue drained.
		q.base = e.at - e.at%q.grain
		q.min, q.minOK = ent, true
	} else if q.minOK && entLess(ent, q.min) {
		// A stale (minOK == false) cache stays stale: the true head may be an
		// event this push does not beat; peek recomputes it on demand.
		q.min = ent
	}
	q.n++
	o := int64(0)
	if e.at > q.base {
		o = int64((e.at - q.base) / q.grain)
	}
	if o >= int64(len(q.buckets)) {
		q.overflow.push(e)
		return
	}
	// o == 0 also absorbs the clamped earlier-than-base case above.
	q.pushBucket((q.cursor+int(o))&(len(q.buckets)-1), e)
}

// pushBucket adds e to ring bucket idx. First use of a bucket seeds a small
// backing array, skipping the 1→2→4 append-growth chain; afterwards the
// slice retains its high-water capacity and steady state never allocates.
func (q *calQ) pushBucket(idx int, e *event) {
	if cap(q.buckets[idx]) == 0 {
		q.buckets[idx] = make(eventHeap, 0, 4)
	}
	q.buckets[idx].push(e)
	q.nonEmpty[idx>>6] |= 1 << (uint(idx) & 63)
	q.ringN++
}

// promote moves overflow events that now fit the ring window into their
// buckets. Amortized O(1): each event is promoted at most once.
func (q *calQ) promote() {
	horizon := q.base + Time(len(q.buckets))*q.grain
	for len(q.overflow) > 0 && q.overflow[0].at < horizon {
		e := q.overflow.pop()
		o := int64(0)
		if e.at > q.base {
			o = int64((e.at - q.base) / q.grain)
		}
		q.pushBucket((q.cursor+int(o))&(len(q.buckets)-1), e)
	}
}

// advance moves the cursor to the first non-empty bucket, growing base
// accordingly. Requires ringN > 0.
func (q *calQ) advance() {
	nb := len(q.buckets)
	if q.nonEmpty[q.cursor>>6]>>(uint(q.cursor)&63)&1 != 0 {
		return
	}
	// Scan bitmap words in ring order starting at the cursor's word;
	// positions before the cursor wrap around to the window's far end.
	nw := nb >> 6
	cw := q.cursor >> 6
	if m := q.nonEmpty[cw] &^ (1<<uint(q.cursor&63) - 1); m != 0 {
		idx := cw<<6 + bits.TrailingZeros64(m)
		q.base += Time(idx-q.cursor) * q.grain
		q.cursor = idx
		return
	}
	for k := 1; k <= nw; k++ {
		w := cw + k
		if w >= nw {
			w -= nw
		}
		m := q.nonEmpty[w]
		if k == nw {
			m &= 1<<uint(q.cursor&63) - 1
		}
		if m != 0 {
			idx := w<<6 + bits.TrailingZeros64(m)
			delta := idx - q.cursor
			if delta < 0 {
				delta += nb
			}
			q.base += Time(delta) * q.grain
			q.cursor = idx
			return
		}
	}
	panic("sim: calQ.advance on empty ring")
}

// peek returns the queue head without removing it.
func (q *calQ) peek() (heapEnt, bool) {
	if q.n == 0 {
		return heapEnt{}, false
	}
	if q.minOK {
		return q.min, true
	}
	q.findMin()
	return q.min, true
}

// findMin positions the cursor on the bucket holding the queue head and
// refreshes the min cache. Any overflow event that could be the head is
// necessarily below the pre-advance horizon (its push-time horizon is at
// most the current one, and ring events all sit below their own push-time
// horizons), so promoting before advancing is sufficient. Idempotent and
// cheap when already positioned.
func (q *calQ) findMin() {
	if q.ringN == 0 {
		// Ring drained: re-anchor at the overflow head and refill. The head
		// lands at offset zero, so the cursor bucket is non-empty after.
		at := q.overflow[0].at
		q.base = at - at%q.grain
		q.promote()
	} else {
		q.promote()
		q.advance()
	}
	q.min, q.minOK = q.buckets[q.cursor][0], true
}

// pop removes and returns the queue head. Requires n > 0.
func (q *calQ) pop() *event {
	if q.n == 0 {
		panic("sim: pop from empty event queue")
	}
	// A valid cache implies a valid position: only findMin sets minOK, pops
	// clear it, and no push can place a new head outside the cursor bucket
	// while it holds the current one (later buckets' windows start past the
	// head; clamped events land in the cursor bucket itself).
	if !q.minOK {
		q.findMin()
	}
	b := &q.buckets[q.cursor]
	e := b.pop()
	if len(*b) == 0 {
		q.nonEmpty[q.cursor>>6] &^= 1 << (uint(q.cursor) & 63)
	}
	q.ringN--
	q.n--
	q.minOK = false
	return e
}

// forEach visits every queued event in arbitrary order.
func (q *calQ) forEach(fn func(e *event)) {
	for i := range q.buckets {
		for _, ent := range q.buckets[i] {
			fn(ent.e)
		}
	}
	for _, ent := range q.overflow {
		fn(ent.e)
	}
}

// SetTimeGrain fixes the calendar-queue bucket width: the characteristic
// event spacing of the run, normally the fabric's angle-synchronous cycle
// time. Must be called before any event is scheduled. Later HintTimeGrain
// calls are ignored once the grain is set explicitly.
func (k *Kernel) SetTimeGrain(g Time) {
	if g <= 0 {
		panic("sim: time grain must be positive")
	}
	if k.q.len() > 0 {
		panic("sim: SetTimeGrain with events pending")
	}
	k.grainSet = true
	k.q = newCalQ(g)
}

// HintTimeGrain is SetTimeGrain for components that know their own timescale
// (e.g. a fabric's cycle time) but not whether the host run already chose
// one: the hint applies only if no grain was set explicitly and no events
// are pending, and is silently ignored otherwise.
func (k *Kernel) HintTimeGrain(g Time) {
	if k.grainSet || k.q.len() > 0 || g <= 0 {
		return
	}
	k.q = newCalQ(g)
}
