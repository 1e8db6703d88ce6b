package sim

import "fmt"

// A Train is a FIFO of pointer-free records that are all due as kernel
// events, of which only the head is queued in the kernel. It is for an owner
// that learns early of events that happen late, in an order it can vouch
// for: the fast switch model's per-port delivery trains and a VIC's receive
// train. The kernel then holds one event per train instead of one per
// record, and nothing moves — every record fires at exactly the (at, seq)
// and in exactly the order it would as a kernel event of its own, because
//
//   - the owner reserves each record's seq (Kernel.ReserveSeq) when it
//     appends the record, where AtArg would have drawn it, so both keys are
//     fixed before the record waits;
//   - a train is a FIFO in both keys: Append refuses a key below the tail's,
//     so a record's predecessor fires no later than it is due and arms it
//     (Kernel.AtArgSeq) before virtual time passes it;
//   - the kernel orders events by (at, seq) alone, never by when they were
//     queued.
//
// Records appended under one key are a run and fire as one event, in append
// order — the order per-record events under ascending sequence numbers would
// fire in. The fast model batches deliveries that eject at one instant this
// way.
//
// When the head fires, the train pops the whole run into its yard's buffer
// and arms the next record before it hands the run to the owner, so no owner
// callback runs while a non-empty train is disarmed: a callback may append to
// any train of the yard, this one included.
type Train[R any] struct {
	y          *Yard[R]
	head, tail *trainPage[R] // nil on an empty train
	hi, ti     int32         // head.ent[hi] is the head record; tail.ent[ti] the next free slot
}

// Yard is what an owner's trains share: the kernel, the callback each fired
// run is handed to, the free list of emptied pages and the buffer a run is
// popped into. Pages come from one free list per owner, so storage follows
// the owner's whole backlog rather than each train's own peak.
type Yard[R any] struct {
	k      *Kernel
	fire   func(run []R)
	handle func(any) // fireTrain[R], made once: a generic func value allocates
	free   *trainPage[R]
	run    []R
}

// trainPageLen is the number of records on one page. Seven keeps a page of
// 40-byte records (a VIC receive) at 288 bytes, a size class of its own, and
// a page of 64-byte records (a fast-model delivery) at 456 bytes in the
// 480-byte class; small pages keep a short run's partly filled ones cheap.
const trainPageLen = 7

// trainEnt is one record with its kernel key.
type trainEnt[R any] struct {
	at  Time
	seq uint64
	r   R
}

// trainPage is a fixed block of records. Pages are linked into a train and,
// once emptied, into the yard's free list; a record is never moved after
// Append writes it. next comes first, so the collector scans only the link.
type trainPage[R any] struct {
	next *trainPage[R]
	ent  [trainPageLen]trainEnt[R]
}

// Init readies y for trains on k whose runs are handed to fire. The run
// slice is the yard's buffer: it is valid until fire returns.
func (y *Yard[R]) Init(k *Kernel, fire func(run []R)) {
	y.k, y.fire = k, fire
	y.handle = fireTrain[R]
}

// Init attaches an empty train to y.
func (t *Train[R]) Init(y *Yard[R]) { t.y = y }

// Append adds r at the tail under the key (at, seq) its owner reserved. A key
// equal to the tail's joins the tail's run; any other key must be no earlier
// in at and later in seq than the tail's, or Append panics: the train would
// fire out of kernel order. The first record of an empty train is armed at
// once.
func (t *Train[R]) Append(at Time, seq uint64, r R) {
	empty := t.tail == nil
	if !empty {
		tl := &t.tail.ent[t.ti-1]
		if at < tl.at || seq < tl.seq || (seq == tl.seq && at != tl.at) {
			panic(fmt.Sprintf("sim: Train.Append of key (%v, %d) behind tail (%v, %d)", at, seq, tl.at, tl.seq))
		}
	}
	if empty || t.ti == trainPageLen {
		y := t.y
		pg := y.free
		if pg != nil {
			y.free, pg.next = pg.next, nil
		} else {
			pg = new(trainPage[R])
		}
		if empty {
			t.head, t.hi = pg, 0
		} else {
			t.tail.next = pg
		}
		t.tail, t.ti = pg, 0
	}
	t.tail.ent[t.ti] = trainEnt[R]{at, seq, r}
	t.ti++
	if empty {
		t.y.k.AtArgSeq(at, seq, t.y.handle, t)
	}
}

// Tail returns the key of the last record appended, if any waits.
func (t *Train[R]) Tail() (at Time, seq uint64, ok bool) {
	if t.tail == nil {
		return 0, 0, false
	}
	e := &t.tail.ent[t.ti-1]
	return e.at, e.seq, true
}

// Len returns the number of records waiting, the head's run included.
func (t *Train[R]) Len() int {
	if t.head == nil {
		return 0
	}
	n := int(t.ti - t.hi)
	for pg := t.head; pg != t.tail; pg = pg.next {
		n += trainPageLen
	}
	return n
}

// At returns the i-th waiting record and its key, the head being 0; i must
// be below Len.
func (t *Train[R]) At(i int) (at Time, seq uint64, r R) {
	if n := t.Len(); i < 0 || i >= n {
		panic(fmt.Sprintf("sim: Train.At(%d) with %d waiting", i, n))
	}
	pg, j := t.head, int(t.hi)+i
	for ; j >= trainPageLen; j -= trainPageLen {
		pg = pg.next
	}
	e := &pg.ent[j]
	return e.at, e.seq, e.r
}

// fireTrain is the event of a train's head falling due.
func fireTrain[R any](a any) { a.(*Train[R]).fire() }

// fire pops the head's run into the yard's buffer, arms the next record, and
// hands the run to the owner.
func (t *Train[R]) fire() {
	y := t.y
	run := y.run[:0]
	seq := t.head.ent[t.hi].seq
	for t.head != nil && t.head.ent[t.hi].seq == seq {
		run = append(run, t.head.ent[t.hi].r)
		t.pop()
	}
	if t.head != nil {
		e := &t.head.ent[t.hi]
		y.k.AtArgSeq(e.at, e.seq, y.handle, t)
	}
	y.run = run
	y.fire(run)
}

// pop drops the head record, returning each page to the yard's free list as
// soon as its last record has left.
func (t *Train[R]) pop() {
	t.hi++
	switch {
	case t.head == t.tail && t.hi == t.ti:
		t.freePage(t.head)
		t.head, t.tail, t.hi, t.ti = nil, nil, 0, 0
	case t.hi == trainPageLen:
		pg := t.head
		t.head, t.hi = pg.next, 0
		t.freePage(pg)
	}
}

// freePage puts an emptied page on the yard's free list.
func (t *Train[R]) freePage(pg *trainPage[R]) {
	pg.next = t.y.free
	t.y.free = pg
}
