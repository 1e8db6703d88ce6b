// Package mpi implements a message-passing layer over the simulated
// InfiniBand fabric: the reference baseline of the paper ("openmpi 1.8.3
// over FDR InfiniBand"). It provides blocking and non-blocking point-to-point
// communication with tag and wildcard matching, the eager/rendezvous
// protocol split, and the collectives the paper's benchmarks use (barrier,
// broadcast, reduce, allreduce, all-to-all(v), allgather), all implemented
// over point-to-point messages with standard algorithms.
//
// Buffer ownership. A slice passed to a send is only read, and only until
// Wait returns for it (an eager send copies it out at once, a rendezvous at
// its CTS): after Wait the sender may overwrite it, and mpi never writes to
// it — ranks may share one. The staged copy is the receiver's: what Recv and
// Wait return belongs to the caller for good and is never recycled. What
// Alltoall, Allgather and Bcast return — the header and every block in it
// that was received, not passed through — is valid until the same rank's next
// collective of any kind (Barrier, Reduce and Allreduce included), which
// takes the blocks back as receive buffers; a caller that needs them longer
// copies them out. Reduce and Allreduce return slices the caller owns.
// A Request from Isend or Irecv is the caller's too: it may be waited on more
// than once (Waitall, then Wait for the data) and is never recycled. The
// requests of Send, Recv and the collectives, whose handles stay inside mpi,
// envelopes and those receive buffers are recycled within one World and never
// shared between Worlds, so the steady-state message path does not allocate
// and one run cannot affect another.
package mpi

import (
	"fmt"
	"math/bits"
	"slices"

	"repro/internal/ib"
	"repro/internal/obs"
	"repro/internal/sim"
)

// Wildcards for Recv matching. A wildcard receive never takes a collective's
// internal traffic, so one posted during a collective gets only user messages.
const (
	AnySource = -1
	AnyTag    = -1
)

// Params holds the software-layer costs, calibrated to typical small-message
// MPI latencies over FDR (≈1.2–1.5 µs end to end).
type Params struct {
	// EagerLimit is the message size (bytes) up to which messages are sent
	// eagerly; larger transfers use the rendezvous protocol.
	EagerLimit int
	// SendOverhead is the sender-side software cost per message.
	SendOverhead sim.Time
	// RecvOverhead is the receiver-side software cost per message.
	RecvOverhead sim.Time
	// CtrlBytes is the wire size of RTS/CTS control messages.
	CtrlBytes int
	// CopyBW is the host memcpy bandwidth for buffer staging.
	CopyBW float64
}

// DefaultParams returns the calibrated MPI software parameters.
func DefaultParams() Params {
	return Params{
		EagerLimit:   8192,
		SendOverhead: 350 * sim.Nanosecond,
		RecvOverhead: 350 * sim.Nanosecond,
		CtrlBytes:    32,
		CopyBW:       8e9,
	}
}

// World holds the communicator state shared by all ranks.
type World struct {
	K     *sim.Kernel
	F     *ib.Fabric
	par   Params
	comms []*Comm

	// onMessage, when set, observes every user-level message for tracing:
	// (src, dst, injection time, delivery time, payload bytes).
	onMessage func(src, dst int, t0, t1 sim.Time, bytes int)

	// obs holds the instruments no Comm field owns (SetObs); nil when
	// disabled.
	obs *worldObs

	// Recycled requests and envelopes (newRequest, newMessage).
	freeReqs []*Request
	freeMsgs []*message
}

// worldObs counts the protocol each user-level send took.
type worldObs struct {
	eager *obs.Counter
	rndv  *obs.Counter
}

// SetObs registers the MPI metrics on r: views of the ranks' SentMessages and
// SentBytes, summed over ranks, and the eager/rendezvous instruments. It also
// forwards the registry to the underlying fabric. A nil r attaches nothing.
func (w *World) SetObs(r *obs.Registry) {
	if r == nil {
		return
	}
	w.F.SetObs(r)
	for _, c := range w.comms {
		r.CounterFunc("mpi_messages_total", func() int64 { return c.SentMessages })
		r.CounterFunc("mpi_bytes_total", func() int64 { return c.SentBytes })
	}
	w.obs = &worldObs{eager: r.Counter("mpi_eager_total"), rndv: r.Counter("mpi_rendezvous_total")}
}

// OnMessage installs a message observer (for execution tracing).
func (w *World) OnMessage(fn func(src, dst int, t0, t1 sim.Time, bytes int)) {
	w.onMessage = fn
}

// NewWorld builds a world over the given fabric; one rank per fabric node.
func NewWorld(k *sim.Kernel, f *ib.Fabric, par Params) *World {
	w := &World{K: k, F: f, par: par, comms: make([]*Comm, f.Nodes())}
	for i := range w.comms {
		w.comms[i] = &Comm{w: w, rank: i}
	}
	return w
}

// Bind attaches rank's communicator to its simulated process and returns it.
// Every rank must be bound before communicating.
func (w *World) Bind(rank int, p *sim.Proc) *Comm {
	c := w.comms[rank]
	c.p = p
	return c
}

// Status reports the actual envelope of a received message.
type Status struct {
	Source int
	Tag    int
	Bytes  int
}

// Request is a non-blocking operation handle. One that Isend or Irecv handed
// to a caller is the caller's: Wait may be called on it any number of times
// (Waitall, then Wait for the data) and mpi never reuses it. Only requests
// whose handle never leaves mpi (Send, Recv, the collectives) are recycled.
type Request struct {
	w        *World
	done     bool
	gate     sim.Gate // the one rank that waits for it
	src, tag int      // a posted receive's match pattern (wildcards allowed)
	data     []byte
	status   Status
	overhead sim.Time // software cost charged at completion (Wait)
}

// message is an in-flight envelope (either a full eager payload or a
// rendezvous RTS). It is also the argument of every fabric event of its
// transfer, so a message in flight costs no closure.
type message struct {
	src, tag int
	dst      *Comm    // the receiving endpoint
	t0       sim.Time // when the payload entered the fabric (message observer)
	data     []byte   // eager payload; nil for an RTS until its CTS stages the payload
	rndv     *Request // sender's request, for rendezvous
	bytes    int      // payload size (rendezvous)
	recv     *Request // the receive a rendezvous matched
}

// newRequest and newMessage take from the world's free lists; wait and the
// last event of a transfer put back. A run is single-threaded (sim.Kernel),
// so the lists need no lock.
func (w *World) newRequest() *Request {
	if n := len(w.freeReqs); n > 0 {
		r := w.freeReqs[n-1]
		w.freeReqs = w.freeReqs[:n-1]
		return r
	}
	return &Request{w: w}
}

func (w *World) newMessage() *message {
	if n := len(w.freeMsgs); n > 0 {
		m := w.freeMsgs[n-1]
		w.freeMsgs = w.freeMsgs[:n-1]
		return m
	}
	return &message{}
}

func (w *World) freeMessage(m *message) {
	*m = message{}
	w.freeMsgs = append(w.freeMsgs, m)
}

// Comm is one rank's endpoint.
type Comm struct {
	w    *World
	rank int
	p    *sim.Proc

	posted     []*Request
	unexpected []*message

	collSeq int // collective sequence number (tags collective rounds)

	// Receive buffers of collective traffic (see the package comment for who
	// owns which bytes): free holds idle ones by size class, lent the ones
	// inside the last collective's result, recv that result's header.
	free [][][]byte
	lent [][]byte
	recv [][]byte

	// Encode/decode scratch of Reduce and Allreduce.
	wire []byte
	vals []float64

	ch chain // the send, Wait or collective in progress (see chain)

	// SentMessages and SentBytes count user-level sends (telemetry).
	SentMessages int64
	SentBytes    int64
}

// Rank returns this endpoint's rank.
func (c *Comm) Rank() int { return c.rank }

// Size returns the number of ranks.
func (c *Comm) Size() int { return len(c.w.comms) }

const (
	userTagLimit = 1 << 20 // user tags must stay below this
	ctrlTagBase  = 1 << 30 // internal tags (never matched by users)
)

// recvBuf returns the n-byte buffer a message with the given tag is received
// into. A user message gets a fresh one, which Recv/Wait hand to the caller
// for good. Collective traffic (internal tags) draws on c's free list, in
// power-of-two size classes so that rounds of varying block sizes still
// reuse each other's buffers; the collective that hands such a buffer out
// records it in c.lent and the next collective on c takes it back.
func (c *Comm) recvBuf(tag, n int) []byte {
	if tag < ctrlTagBase || n == 0 {
		return make([]byte, n)
	}
	class := bits.Len(uint(n - 1))
	if class < len(c.free) {
		if l := c.free[class]; len(l) > 0 {
			c.free[class] = l[:len(l)-1]
			return l[len(l)-1][:n]
		}
	}
	return make([]byte, n, 1<<class)
}

// release returns a buffer obtained from recvBuf under an internal tag.
func (c *Comm) release(b []byte) {
	if cap(b) == 0 {
		return
	}
	class := bits.Len(uint(cap(b) - 1))
	for len(c.free) <= class {
		c.free = append(c.free, nil)
	}
	c.free[class] = append(c.free[class], b)
}

// ---------------------------------------------------------------------------
// Point-to-point

// Isend starts a non-blocking send of data to dst with the given tag and
// returns a request. The data slice is captured; the caller may reuse its
// buffer after Wait.
func (c *Comm) Isend(dst, tag int, data []byte) *Request {
	checkUserTag(tag)
	return c.isend(dst, tag, data, false)
}

// checkUserTag panics on a send tag outside the user range.
func checkUserTag(tag int) {
	if tag < 0 || tag >= userTagLimit {
		panic(fmt.Sprintf("mpi: invalid user tag %d", tag))
	}
}

// isend starts a send of data to dst under tag and returns its request; with
// wait set, the same chain then waits for the request (Send).
func (c *Comm) isend(dst, tag int, data []byte, wait bool) *Request {
	if n := len(c.w.comms); dst < 0 || dst >= n {
		panic(fmt.Sprintf("mpi: rank %d sends to rank %d, outside its communicator of size %d", c.rank, dst, n))
	}
	op := opSend
	if wait {
		op = opSendWait
	}
	s := &c.ch
	*s = chain{c: c, op: op, tag: tag, dst: dst, data: data}
	c.p.Chain(s)
	req := s.sreq
	*s = chain{}
	return req
}

// chainOp is what a rank's chain runs (see chain).
type chainOp uint8

const (
	opSend      chainOp = iota // one send, up to the start of its transfer
	opSendWait                 // one send, then the wait for its request (Send)
	opBarrier                  // the rounds of a dissemination Barrier
	opAlltoall                 // the pairwise rounds of an Alltoall
	opAllgather                // the ring rounds of an Allgather
)

// chainStep is the step a chain runs next: a round is stSend to stRoundEnd
// in order, and a Wait is stWait alone.
type chainStep uint8

const (
	stSend     chainStep = iota // the send's overhead
	stStage                     // the envelope, and an eager payload's copy
	stStart                     // the transfer starts and the receive is posted
	stRecv                      // the receive's gate, then its overhead
	stRecvDone                  // the received block is stored
	stSendDone                  // the send's gate
	stRoundEnd                  // the send's request is recycled
	stWait                      // Wait: the request's gate, then its overhead; then the next of waits
)

// chain is the one sim.Chain a rank runs at a time (a rank makes one call at
// a time): a send (and, for Send, the wait for it), a Wait, the waits of a
// Waitall, or every round of an Alltoall, Allgather or dissemination
// Barrier, which switches to the rank once, when the call returns. A round
// is the loop body
//
//	sreq := c.isend(dst, tag, data)
//	data, _ := c.wait(c.irecv(src, tag))
//	c.wait(sreq)
//
// cut at its waits. Each step runs at the event that would have resumed the
// rank in that loop and makes the same calls in the same order, so the two
// cannot be told apart but by their resumes.
type chain struct {
	c             *Comm
	op            chainOp
	next          chainStep
	round, rounds int
	tag, dst, src int
	data          []byte   // the block this round sends
	blocks        [][]byte // Alltoall's send blocks (the result is c.recv)
	sreq, rreq    *Request
	waits         []*Request // Waitall's requests still to wait for after rreq
	msg           *message   // the staged envelope, until its transfer starts
}

func (s *chain) Step() (sim.Time, bool) {
	c, w := s.c, s.c.w
	switch s.next {
	case stSend:
		s.begin()
		c.SentMessages++
		c.SentBytes += int64(len(s.data))
		if w.obs != nil {
			if len(s.data) <= w.par.EagerLimit {
				w.obs.eager.Inc()
			} else {
				w.obs.rndv.Inc()
			}
		}
		s.next = stStage
		return w.par.SendOverhead, true
	case stStage:
		s.sreq = w.newRequest()
		msg := w.newMessage()
		msg.src, msg.tag, msg.dst = c.rank, s.tag, w.comms[s.dst]
		s.msg = msg
		s.next = stStart
		if len(s.data) <= w.par.EagerLimit {
			msg.data = msg.dst.recvBuf(s.tag, len(s.data))
			copy(msg.data, s.data)
			return sim.BytesAt(len(s.data), w.par.CopyBW), true // stage into send buffer
		}
		s.sreq.data = s.data // held until CTS; zero-copy from the sender's buffer
		msg.rndv, msg.bytes = s.sreq, len(s.data)
		return 0, true
	case stStart:
		msg := s.msg
		s.msg = nil
		if msg.rndv == nil {
			// Eager: ship envelope and payload at once.
			msg.t0 = w.K.Now()
			srcFree := w.F.TransferArg(c.rank, s.dst, len(msg.data)+w.par.CtrlBytes, fireArrive, msg)
			w.K.AtArg(srcFree, fireComplete, s.sreq)
		} else {
			// Rendezvous: send an RTS; the CTS handler performs the data transfer.
			w.F.TransferArg(c.rank, s.dst, w.par.CtrlBytes, fireArrive, msg)
		}
		switch s.op {
		case opSend:
			return 0, false
		case opSendWait:
			s.rreq = s.sreq
			s.next = stWait
			return 0, true
		}
		s.rreq = c.irecv(s.src, s.tag)
		s.next = stRecv
		return 0, true
	case stRecv:
		d, done := c.await(s.rreq)
		if done {
			s.next = stRecvDone
		}
		return d, true
	case stRecvDone:
		s.store(s.rreq.data)
		w.recycle(s.rreq)
		s.rreq = nil
		s.next = stSendDone
		return 0, true
	case stSendDone:
		d, done := c.await(s.sreq)
		if done {
			s.next = stRoundEnd
		}
		return d, true
	case stRoundEnd:
		w.recycle(s.sreq)
		s.sreq = nil
		s.round++
		s.next = stSend
		return 0, s.round < s.rounds
	default: // stWait
		d, done := c.await(s.rreq)
		if done && len(s.waits) > 0 {
			s.rreq, s.waits = s.waits[0], s.waits[1:]
			return d, true
		}
		return d, !done
	}
}

// begin sets the partners, tag and block of the collective round s.round; a
// send has them from isend.
func (s *chain) begin() {
	c, n := s.c, s.c.Size()
	switch s.op {
	case opBarrier:
		dist := 1 << s.round
		s.dst, s.src = (c.rank+dist)%n, (c.rank-dist+n)%n
		s.tag = c.collTag(s.round)
	case opAlltoall:
		step := s.round + 1
		s.dst, s.src = (c.rank+step)%n, (c.rank-step+n)%n
		s.data = s.blocks[s.dst]
	case opAllgather: // round r passes on the block received in round r-1
		s.dst, s.src = (c.rank+1)%n, (c.rank-1+n)%n
		s.data = c.recv[(c.rank-s.round+n)%n]
	}
}

// store files the block round s.round received; a Barrier's is empty.
func (s *chain) store(data []byte) {
	c := s.c
	switch s.op {
	case opAlltoall:
		c.recv[s.src] = c.lend(data)
	case opAllgather:
		c.recv[(c.rank-s.round-1+c.Size())%c.Size()] = c.lend(data)
	}
}

// rounds runs n rounds of a collective as one chain (see chain), under tag
// (a Barrier's rounds each draw their own in begin).
func (c *Comm) rounds(op chainOp, tag, n int, blocks [][]byte) {
	if n == 0 {
		return
	}
	s := &c.ch
	*s = chain{c: c, op: op, tag: tag, rounds: n, blocks: blocks}
	c.p.Chain(s)
	*s = chain{}
}

// fireArrive is the fabric event of an envelope reaching its destination.
func fireArrive(a any) {
	m := a.(*message)
	c := m.dst
	if w := c.w; m.rndv == nil && w.onMessage != nil {
		w.onMessage(m.src, c.rank, m.t0, w.K.Now(), len(m.data))
	}
	c.deliver(m)
}

// fireComplete is the event of a send's source buffer becoming reusable.
func fireComplete(a any) { a.(*Request).complete() }

// Irecv posts a non-blocking receive matching (src, tag), either of which
// may be a wildcard, and returns a request.
func (c *Comm) Irecv(src, tag int) *Request {
	if n := len(c.w.comms); src != AnySource && (src < 0 || src >= n) {
		panic(fmt.Sprintf("mpi: rank %d receives from rank %d, outside its communicator of size %d", c.rank, src, n))
	}
	if tag != AnyTag && (tag < 0 || tag >= userTagLimit) {
		panic(fmt.Sprintf("mpi: rank %d receives with invalid user tag %d (user tags are [0, %d); communicator of size %d)", c.rank, tag, userTagLimit, len(c.w.comms)))
	}
	return c.irecv(src, tag)
}

func (c *Comm) irecv(src, tag int) *Request {
	req := c.w.newRequest()
	// Look for an already-arrived unexpected message first (match in
	// arrival order, as MPI requires).
	for i, m := range c.unexpected {
		if matches(src, tag, m) {
			c.unexpected = slices.Delete(c.unexpected, i, i+1)
			c.consume(m, req)
			return req
		}
	}
	req.src, req.tag = src, tag
	c.posted = append(c.posted, req)
	return req
}

// matches reports whether a receive posted for (src, tag) takes m. AnyTag
// matches user tags only: a wildcard receive posted during a collective must
// not consume the collective's internal traffic (real MPI keeps the two
// apart by context id).
func matches(src, tag int, m *message) bool {
	return (src == AnySource || src == m.src) && (tag == m.tag || (tag == AnyTag && m.tag < ctrlTagBase))
}

// deliver handles an arriving envelope at the receiver (fabric event).
func (c *Comm) deliver(m *message) {
	for i, req := range c.posted {
		if matches(req.src, req.tag, m) {
			c.posted = slices.Delete(c.posted, i, i+1)
			c.consume(m, req)
			return
		}
	}
	c.unexpected = append(c.unexpected, m)
}

// consume completes (or progresses) a matched message into a request.
func (c *Comm) consume(m *message, req *Request) {
	w := c.w
	req.status = Status{Source: m.src, Tag: m.tag}
	if m.rndv == nil {
		// Eager payload already here.
		req.status.Bytes = len(m.data)
		req.data = m.data
		req.overhead = w.par.RecvOverhead + sim.BytesAt(len(m.data), w.par.CopyBW)
		w.freeMessage(m)
		req.complete()
		return
	}
	// Rendezvous: grant the sender a CTS; data flows afterwards.
	req.status.Bytes = m.bytes
	m.recv = req
	w.F.TransferArg(c.rank, m.src, w.par.CtrlBytes, fireCTS, m)
}

// fireCTS is the fabric event of a CTS reaching the sender: the payload is
// staged out of the sender's buffer and put on the wire.
func fireCTS(a any) {
	m := a.(*message)
	c, w := m.dst, m.dst.w
	m.data = c.recvBuf(m.tag, m.bytes)
	copy(m.data, m.rndv.data)
	m.t0 = w.K.Now()
	srcFree := w.F.TransferArg(m.src, c.rank, m.bytes+w.par.CtrlBytes, fireRendezvousData, m)
	w.K.AtArg(srcFree, fireComplete, m.rndv)
}

// fireRendezvousData is the fabric event of a rendezvous payload arriving.
// The sender's request may have been waited for and recycled by now; only
// the receive is touched.
func fireRendezvousData(a any) {
	m := a.(*message)
	c, w, req := m.dst, m.dst.w, m.recv
	if w.onMessage != nil {
		w.onMessage(m.src, c.rank, m.t0, w.K.Now(), len(m.data))
	}
	req.data = m.data
	req.overhead = w.par.RecvOverhead
	w.freeMessage(m)
	req.complete()
}

func (r *Request) complete() {
	r.done = true
	r.gate.Signal(r.w.K)
}

// Wait blocks until the request completes and returns the received data and
// status (nil data and zero status for send requests). The data is the
// caller's to keep. Waiting again on a completed request returns the same
// data and status at no further cost.
func (c *Comm) Wait(r *Request) ([]byte, Status) {
	if !r.done || r.overhead > 0 {
		s := &c.ch
		*s = chain{c: c, next: stWait, rreq: r}
		c.p.Chain(s)
		*s = chain{}
	}
	return r.data, r.status
}

// await is one step of a wait for r, as the loop
//
//	for !r.done { r.gate.Wait(p) }; p.Wait(r.overhead)
//
// makes it: while r is not done it queues the rank on r's gate and reports
// false; once r is done it returns r's overhead, charged once.
func (c *Comm) await(r *Request) (overhead sim.Time, done bool) {
	if !r.done {
		r.gate.Await(c.p)
		return 0, false
	}
	overhead, r.overhead = r.overhead, 0
	return overhead, true
}

// wait is Wait for a request whose handle the caller of mpi never saw: once
// it has completed, nothing else can reach it and it goes back on the free
// list.
func (c *Comm) wait(r *Request) ([]byte, Status) {
	data, status := c.Wait(r)
	c.w.recycle(r)
	return data, status
}

// recycle puts a completed request nobody outside mpi holds back on the free
// list.
func (w *World) recycle(r *Request) {
	*r = Request{w: w}
	w.freeReqs = append(w.freeReqs, r)
}

// Waitall blocks until every request completes: Wait on each in order, as
// one chain.
func (c *Comm) Waitall(rs []*Request) {
	if len(rs) == 0 {
		return
	}
	s := &c.ch
	*s = chain{c: c, next: stWait, rreq: rs[0], waits: rs[1:]}
	c.p.Chain(s)
	*s = chain{}
}

// Send is the blocking send: Isend, then the wait for its request, as one
// chain.
func (c *Comm) Send(dst, tag int, data []byte) {
	checkUserTag(tag)
	c.send(dst, tag, data)
}

// send is Send for a request the caller of mpi never sees: the send and its
// wait as one chain, then the request back on the free list.
func (c *Comm) send(dst, tag int, data []byte) {
	c.w.recycle(c.isend(dst, tag, data, true))
}

// Recv is the blocking receive; it returns the payload and actual envelope.
func (c *Comm) Recv(src, tag int) ([]byte, Status) {
	return c.wait(c.Irecv(src, tag))
}
