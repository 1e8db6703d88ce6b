// Package mpi implements a message-passing layer over the simulated
// InfiniBand fabric: the reference baseline of the paper ("openmpi 1.8.3
// over FDR InfiniBand"). It provides blocking and non-blocking point-to-point
// communication with tag and wildcard matching, the eager/rendezvous
// protocol split, and the collectives the paper's benchmarks use (barrier,
// broadcast, reduce, allreduce, all-to-all(v), allgather), all implemented
// over point-to-point messages with standard algorithms.
package mpi

import (
	"fmt"

	"repro/internal/ib"
	"repro/internal/obs"
	"repro/internal/sim"
)

// Wildcards for Recv matching.
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

	// obs holds the registry-backed instruments (SetObs); nil when disabled.
	obs *worldObs
}

// worldObs is the MPI layer's registry-backed instrument set.
type worldObs struct {
	messages *obs.Counter
	bytes    *obs.Counter
	eager    *obs.Counter
	rndv     *obs.Counter
}

// SetObs attaches observability instruments to the world (nil detaches).
// It also forwards the registry to the underlying fabric.
func (w *World) SetObs(r *obs.Registry) {
	w.F.SetObs(r)
	if r == nil {
		w.obs = nil
		return
	}
	w.obs = &worldObs{
		messages: r.Counter("mpi_messages_total"),
		bytes:    r.Counter("mpi_bytes_total"),
		eager:    r.Counter("mpi_eager_total"),
		rndv:     r.Counter("mpi_rendezvous_total"),
	}
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

// Request is a non-blocking operation handle.
type Request struct {
	done     bool
	isRecv   bool
	gate     sim.Gate
	data     []byte
	status   Status
	overhead sim.Time // software cost charged at completion (Wait)
}

// message is an in-flight envelope (either a full eager payload or a
// rendezvous RTS).
type message struct {
	src, tag int
	data     []byte   // eager payload (nil for RTS)
	rndv     *Request // sender's request, for rendezvous
	bytes    int      // payload size (rendezvous)
}

type postedRecv struct {
	src, tag int
	req      *Request
}

// Comm is one rank's endpoint.
type Comm struct {
	w    *World
	rank int
	p    *sim.Proc

	posted     []*postedRecv
	unexpected []*message

	collSeq int // collective sequence number (tags collective rounds)

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

// ---------------------------------------------------------------------------
// Point-to-point

// Isend starts a non-blocking send of data to dst with the given tag and
// returns a request. The data slice is captured; the caller may reuse its
// buffer after Wait.
func (c *Comm) Isend(dst, tag int, data []byte) *Request {
	if tag < 0 || tag >= userTagLimit {
		panic(fmt.Sprintf("mpi: invalid user tag %d", tag))
	}
	return c.isend(dst, tag, data)
}

func (c *Comm) isend(dst, tag int, data []byte) *Request {
	w := c.w
	c.SentMessages++
	c.SentBytes += int64(len(data))
	if w.obs != nil {
		w.obs.messages.Inc()
		w.obs.bytes.Add(int64(len(data)))
		if len(data) <= w.par.EagerLimit {
			w.obs.eager.Inc()
		} else {
			w.obs.rndv.Inc()
		}
	}
	c.p.Wait(w.par.SendOverhead)
	req := &Request{}
	peer := w.comms[dst]
	if len(data) <= w.par.EagerLimit {
		// Eager: ship envelope and payload at once.
		buf := make([]byte, len(data))
		copy(buf, data)
		c.p.Wait(sim.BytesAt(len(data), w.par.CopyBW)) // stage into send buffer
		msg := &message{src: c.rank, tag: tag, data: buf}
		t0 := w.K.Now()
		srcFree := w.F.Transfer(c.rank, dst, len(data)+w.par.CtrlBytes, func() {
			if w.onMessage != nil {
				w.onMessage(c.rank, dst, t0, w.K.Now(), len(msg.data))
			}
			peer.deliver(msg)
		})
		w.K.At(srcFree, func() { req.complete(w.K) })
		return req
	}
	// Rendezvous: send an RTS; the CTS handler performs the data transfer.
	req.data = data // held until CTS; zero-copy from the sender's buffer
	msg := &message{src: c.rank, tag: tag, rndv: req, bytes: len(data)}
	w.F.Transfer(c.rank, dst, w.par.CtrlBytes, func() { peer.deliver(msg) })
	return req
}

// Irecv posts a non-blocking receive matching (src, tag), either of which
// may be a wildcard, and returns a request.
func (c *Comm) Irecv(src, tag int) *Request {
	req := &Request{isRecv: true}
	// Look for an already-arrived unexpected message first (match in
	// arrival order, as MPI requires).
	for i, m := range c.unexpected {
		if matches(src, tag, m) {
			c.unexpected = append(c.unexpected[:i], c.unexpected[i+1:]...)
			c.consume(m, req)
			return req
		}
	}
	c.posted = append(c.posted, &postedRecv{src: src, tag: tag, req: req})
	return req
}

func matches(src, tag int, m *message) bool {
	return (src == AnySource || src == m.src) && (tag == AnyTag || tag == m.tag)
}

// deliver handles an arriving envelope at the receiver (fabric event).
func (c *Comm) deliver(m *message) {
	for i, pr := range c.posted {
		if matches(pr.src, pr.tag, m) {
			c.posted = append(c.posted[:i], c.posted[i+1:]...)
			c.consume(m, pr.req)
			return
		}
	}
	c.unexpected = append(c.unexpected, m)
}

// consume completes (or progresses) a matched message into a request.
func (c *Comm) consume(m *message, req *Request) {
	w := c.w
	st := Status{Source: m.src, Tag: m.tag}
	if m.rndv == nil {
		// Eager payload already here.
		st.Bytes = len(m.data)
		req.data = m.data
		req.status = st
		req.overhead = w.par.RecvOverhead + sim.BytesAt(len(m.data), w.par.CopyBW)
		req.complete(w.K)
		return
	}
	// Rendezvous: grant the sender a CTS; data flows afterwards.
	st.Bytes = m.bytes
	sender := m.src
	sreq := m.rndv
	w.F.Transfer(c.rank, sender, w.par.CtrlBytes, func() {
		data := sreq.data
		buf := make([]byte, len(data))
		copy(buf, data)
		t0 := w.K.Now()
		srcFree := w.F.Transfer(sender, c.rank, len(data)+w.par.CtrlBytes, func() {
			if w.onMessage != nil {
				w.onMessage(sender, c.rank, t0, w.K.Now(), len(buf))
			}
			req.data = buf
			req.status = st
			req.overhead = w.par.RecvOverhead
			req.complete(w.K)
		})
		w.K.At(srcFree, func() { sreq.complete(w.K) })
	})
}

func (r *Request) complete(k *sim.Kernel) {
	r.done = true
	r.gate.Broadcast(k)
}

// Wait blocks until the request completes and returns the received data and
// status (nil data and zero status for send requests).
func (c *Comm) Wait(r *Request) ([]byte, Status) {
	for !r.done {
		r.gate.Wait(c.p)
	}
	if r.overhead > 0 {
		c.p.Wait(r.overhead)
		r.overhead = 0
	}
	return r.data, r.status
}

// Waitall blocks until every request completes.
func (c *Comm) Waitall(rs []*Request) {
	for _, r := range rs {
		c.Wait(r)
	}
}

// Send is the blocking send.
func (c *Comm) Send(dst, tag int, data []byte) {
	c.Wait(c.Isend(dst, tag, data))
}

// Recv is the blocking receive; it returns the payload and actual envelope.
func (c *Comm) Recv(src, tag int) ([]byte, Status) {
	return c.Wait(c.Irecv(src, tag))
}
