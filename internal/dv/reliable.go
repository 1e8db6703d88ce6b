package dv

import (
	"fmt"

	"repro/internal/sim"
	"repro/internal/vic"
)

// Reliable delivery. The raw Data Vortex fabric is unacknowledged: a packet
// lost to a dead switch node or a link fault silently vanishes, and nothing
// above the switch notices (the failure mode refs [12][13] of the paper
// analyse). ReliableWrite/ReliableScatter layer an ARQ protocol over the
// existing primitives: data writes are followed by query packets whose
// replies land in a sender-side verify region and decrement a reserved ack
// group counter; a WaitGC timeout (or a verify mismatch) triggers selective
// retransmission with exponential backoff until a capped retry budget is
// exhausted. Retransmits are idempotent because DV-memory slots are
// last-writer-wins, and verification checks the postcondition itself — the
// destination slot holds the desired value — so duplicated or reordered
// packets cannot fool it. The one timing assumption (MSL-style) is that
// Timeout far exceeds the maximum packet lifetime in the fabric, so replies
// from an abandoned round do not leak into the next; the defaults keep three
// orders of magnitude of margin over observed worst-case latencies.

// ReliableOpts tunes the reliable-delivery layer.
type ReliableOpts struct {
	// Mode is the host-send path used for data and query batches.
	Mode vic.SendMode
	// ChunkWords bounds the words verified per round (the verify-region
	// size, carved from the top of DV memory at first use).
	ChunkWords int
	// Timeout is the first-round ack wait; each retry multiplies it by
	// Backoff. It must comfortably exceed the worst-case round trip.
	Timeout sim.Time
	// Backoff is the per-retry timeout multiplier.
	Backoff int
	// MaxAttempts caps transmissions per word before a DeliveryError.
	MaxAttempts int
	// QueryDelay separates the data batch from the query batch so verify
	// queries cannot overtake their data packets through the deflecting
	// fabric and trigger spurious retransmits.
	QueryDelay sim.Time
	// PollInterval paces the flag polling in ReliableBarrier.
	PollInterval sim.Time
}

// DefaultReliableOpts returns the calibrated defaults.
func DefaultReliableOpts() ReliableOpts {
	return ReliableOpts{
		Mode:         vic.DMACached,
		ChunkWords:   512,
		Timeout:      30 * sim.Microsecond,
		Backoff:      2,
		MaxAttempts:  8,
		QueryDelay:   2 * sim.Microsecond,
		PollInterval: 2 * sim.Microsecond,
	}
}

// ReliableStats counts the reliable layer's work on one endpoint.
type ReliableStats struct {
	// Writes is the number of words sent on their first attempt.
	Writes int64
	// Retransmits is the number of word re-sends after a failed verify.
	Retransmits int64
	// RetryRounds is the number of verify rounds that found missing words.
	RetryRounds int64
	// Failures is the number of chunks that exhausted the retry budget.
	Failures int64
	// RecoveryTime is the virtual time spent between first detecting loss in
	// a chunk and resolving it (success or giving up).
	RecoveryTime sim.Time
}

// Merge accumulates o into s (cluster-level aggregation).
func (s *ReliableStats) Merge(o ReliableStats) {
	s.Writes += o.Writes
	s.Retransmits += o.Retransmits
	s.RetryRounds += o.RetryRounds
	s.Failures += o.Failures
	s.RecoveryTime += o.RecoveryTime
}

// DeliveryError reports that a reliable send exhausted its retry budget with
// words still unverified — the fabric is losing more than the budget covers.
type DeliveryError struct {
	// Dst is the destination of the first unverified word.
	Dst int
	// Attempts is the number of transmission rounds performed.
	Attempts int
	// Missing is the number of words still unverified.
	Missing int
}

// Error implements error.
func (e *DeliveryError) Error() string {
	return fmt.Sprintf("dv: reliable delivery failed: %d word(s) to node %d unverified after %d attempts",
		e.Missing, e.Dst, e.Attempts)
}

// barrierFlagWords bounds the dissemination-barrier rounds (log2 of the
// maximum supported node count).
const barrierFlagWords = 32

// reliableState is the lazily-initialised per-endpoint reliable-layer state:
// options, telemetry, the scratch carve at the top of DV memory (verify
// region, per-source sequence slots, barrier flags), and the host scratch
// every chunk reuses, so that steady reliable traffic allocates nothing.
type reliableState struct {
	opts ReliableOpts
	st   ReliableStats

	limit      uint32 // symmetric heap must stay below this
	verifyBase uint32 // ChunkWords: query replies land here
	seqBase    uint32 // size words: seqBase+src holds src's chunk sequence
	flagBase   uint32 // barrierFlagWords: dissemination-barrier flags

	seq   []uint64  // per-destination chunk sequence numbers
	epoch uint64    // ReliableBarrier epoch
	flag  [1]uint64 // ReliableBarrier's flag poll reads into it

	chunk   []vic.Word      // the chunk being filled (ChunkDone reads it, never keeps it)
	inChunk map[uint64]bool // (dst,addr) membership of chunk; cleared, never remade
	pending []int           // indices into chunk still unverified
	verify  []uint64        // complemented sentinels out, verify-region read-back in
}

// ReliableTelemetry returns the endpoint's reliable-layer counters (zero if
// the reliable path was never used).
func (e *Endpoint) ReliableTelemetry() ReliableStats {
	if e.rel == nil {
		return ReliableStats{}
	}
	return e.rel.st
}

// ackGC returns the group counter reserved for the reliable ack path (kept
// out of AllocGC's pool, just below the barrier counters).
func (e *Endpoint) ackGC() int { return e.V.Params().BarrierGCA - 1 }

// rstate initialises the reliable layer on first use: the scratch region is
// carved from the top of the 24-bit-addressable DV memory, below any address
// the symmetric heap has reached. Every node performs the same carve, so the
// scratch addresses agree cluster-wide like any symmetric allocation.
func (e *Endpoint) rstate() *reliableState {
	if e.rel != nil {
		return e.rel
	}
	o := DefaultReliableOpts()
	top := e.V.Params().MemWords
	if top > 1<<24 {
		top = 1 << 24 // the packet header carries 24 address bits
	}
	reserve := o.ChunkWords + e.size + barrierFlagWords
	if reserve >= top || int(e.heapNext) > top-reserve {
		panic(fmt.Sprintf("dv: no room for reliable scratch (%d words) above heap at %d", reserve, e.heapNext))
	}
	limit := uint32(top - reserve)
	e.rel = &reliableState{
		opts:       o,
		limit:      limit,
		verifyBase: limit,
		seqBase:    limit + uint32(o.ChunkWords),
		flagBase:   limit + uint32(o.ChunkWords) + uint32(e.size),
		seq:        make([]uint64, e.size),
		chunk:      make([]vic.Word, 0, o.ChunkWords),
		inChunk:    make(map[uint64]bool, o.ChunkWords),
		pending:    make([]int, 0, o.ChunkWords),
		verify:     make([]uint64, o.ChunkWords),
	}
	return e.rel
}

// ReliableWrite delivers vals into dst's DV Memory at addr with loss
// detection and retransmission. It returns nil once every word is verified
// present at the destination, or a *DeliveryError if the retry budget runs
// out. The write is not counted against any application group counter:
// retransmission would make such counts unreliable — completion is the nil
// return itself.
func (e *Endpoint) ReliableWrite(dst int, addr uint32, vals []uint64) error {
	if limit := e.memLimit(); int64(addr)+int64(len(vals)) > int64(limit) {
		return &OOMError{Op: "ReliableWrite", Addr: addr, Words: len(vals), Limit: limit}
	}
	w := vic.Word{Dst: dst, Op: vic.OpWrite, GC: vic.NoGC}
	return e.reliableScatterN(len(vals), func(i int) *vic.Word {
		w.Addr, w.Val = addr+uint32(i), vals[i]
		return &w
	})
}

// ReliableScatter is Scatter with loss detection and retransmission. Words
// must be plain writes (OpWrite, vic.NoGC — see ReliableWrite on counters).
// The batch is processed in chunks of at most ChunkWords; each chunk also
// carries one sequence-marker word per destination (written to the
// destination's seqBase+rank slot and verified like data), so receivers can
// observe sender progress and duplicate chunks are detectable. A repeated
// (dst, addr) within a chunk would make verification ambiguous under
// last-writer-wins, so such words are split into separate chunks.
func (e *Endpoint) ReliableScatter(words []vic.Word) error {
	return e.reliableScatterN(len(words), func(i int) *vic.Word { return &words[i] })
}

// reliableScatterN is ReliableScatter over n words that word generates on
// demand (word(i) once per i, ascending; the Word is copied before the next
// call). Chunks are built in the endpoint's reliable scratch, which every
// return path leaves empty for the next call.
func (e *Endpoint) reliableScatterN(n int, word func(i int) *vic.Word) error {
	if n == 0 {
		return nil
	}
	r := e.rstate()
	seqAddr := r.seqBase + uint32(e.rank)
	for i := range n {
		w := *word(i)
		if w.Op != vic.OpWrite || w.GC != vic.NoGC {
			r.resetChunk() // the partial chunk is never sent
			return fmt.Errorf("dv: ReliableScatter requires OpWrite/NoGC words, got op %d gc %d", w.Op, w.GC)
		}
		key := uint64(uint32(w.Dst))<<32 | uint64(w.Addr)
		seqKey := uint64(uint32(w.Dst))<<32 | uint64(seqAddr)
		// +2: room for this word plus its destination's sequence marker.
		if len(r.chunk)+2 > r.opts.ChunkWords || r.inChunk[key] {
			if err := e.flushChunk(); err != nil {
				return err
			}
		}
		if !r.inChunk[seqKey] {
			r.seq[w.Dst]++
			if e.mut&MutSeqSkip != 0 {
				r.seq[w.Dst]++
			}
			if e.chk != nil {
				e.chk.ChunkSeq(e, w.Dst, r.seq[w.Dst])
			}
			r.chunk = append(r.chunk, vic.Word{
				Dst: w.Dst, Op: vic.OpWrite, GC: vic.NoGC,
				Addr: seqAddr, Val: r.seq[w.Dst]})
			r.inChunk[seqKey] = true
		}
		r.chunk = append(r.chunk, w)
		r.inChunk[key] = true
	}
	return e.flushChunk()
}

// flushChunk runs the ARQ rounds for the chunk being filled, if any, and
// empties it whatever the outcome.
func (e *Endpoint) flushChunk() error {
	r := e.rel
	if len(r.chunk) == 0 {
		return nil
	}
	err := e.reliableChunk(r.chunk)
	r.resetChunk()
	return err
}

// resetChunk empties the chunk scratch, keeping its storage.
func (r *reliableState) resetChunk() {
	r.chunk = r.chunk[:0]
	clear(r.inChunk)
}

// reliableChunk runs the ARQ rounds for one chunk (unique (dst,addr) per
// word). Each round: stage complemented sentinels in the local verify region,
// arm the ack counter, send the still-missing data words, then (after
// QueryDelay) one query per word whose reply writes the destination's current
// slot value into the verify region and decrements the ack counter. After
// WaitGC — timed out or not — the verify region is read back and a word is
// done exactly when the destination slot holds its value. Data and queries
// stream into the VIC; the pending indices and the verify row are scratch.
func (e *Endpoint) reliableChunk(words []vic.Word) error {
	r := e.rel
	o := r.opts
	ack := e.ackGC()
	pending := r.pending[:0]
	for i := range words {
		pending = append(pending, i)
	}
	r.pending = pending
	timeout := o.Timeout
	var tFail sim.Time
	failed := false
	for attempt := 1; ; attempt++ {
		row := r.verify[:len(pending)]
		for j, wi := range pending {
			row[j] = ^words[wi].Val
		}
		e.WriteLocal(r.verifyBase, row)
		e.ArmGC(ack, int64(len(pending)))
		if attempt == 1 {
			r.st.Writes += int64(len(pending))
		} else {
			r.st.Retransmits += int64(len(pending))
			// Attribution: flows issued during a retransmission round carry
			// the round number as their retransmit epoch.
			e.attr.SetEpoch(e.rank, attempt-1)
		}
		e.ScatterN(o.Mode, len(pending), func(j int) *vic.Word { return &words[pending[j]] })
		if o.QueryDelay > 0 {
			e.p.Wait(o.QueryDelay)
		}
		var q vic.Word
		e.ScatterN(o.Mode, len(pending), func(j int) *vic.Word {
			w := &words[pending[j]]
			ret := vic.EncodeHeader(e.rank, vic.OpWrite, ack, r.verifyBase+uint32(j))
			q = vic.Word{Dst: w.Dst, Op: vic.OpQuery, GC: vic.NoGC, Addr: w.Addr, Val: ret}
			return &q
		})
		if attempt > 1 {
			e.attr.SetEpoch(e.rank, 0)
		}
		acked := e.WaitGC(ack, timeout)
		if e.obs != nil {
			if !acked {
				e.obs.Timeouts.Inc()
			}
			e.obs.BackoffWait.Observe(int64(timeout / sim.Microsecond))
		}
		e.ReadInto(row, r.verifyBase)
		still := pending[:0]
		for j, wi := range pending {
			if row[j] != words[wi].Val {
				still = append(still, wi)
			}
		}
		if e.mut&MutSkipRetransmit != 0 {
			still = still[:0]
		}
		if len(still) == 0 {
			if failed {
				r.st.RecoveryTime += e.p.Now() - tFail
			}
			if e.chk != nil {
				e.chk.ChunkDone(e, words, attempt, nil)
			}
			return nil
		}
		if !failed {
			failed = true
			tFail = e.p.Now()
		}
		r.st.RetryRounds++
		if attempt >= o.MaxAttempts {
			r.st.RecoveryTime += e.p.Now() - tFail
			r.st.Failures++
			err := &DeliveryError{Dst: words[still[0]].Dst, Attempts: attempt, Missing: len(still)}
			if e.chk != nil {
				e.chk.ChunkDone(e, words, attempt, err)
			}
			return err
		}
		timeout *= sim.Time(o.Backoff)
		pending = still
	}
}

// worstChunkWait bounds the virtual time one chunk can spend inside
// reliableChunk before it returns. The per-attempt ack timeout grows
// geometrically — attempt a waits Timeout·Backoff^(a-1) — so the bound is
// the geometric sum over MaxAttempts attempts, plus the QueryDelay gap each
// attempt inserts between its data and query batches. A linear
// MaxAttempts·Timeout·Backoff bound underestimates this badly (for the
// defaults, by more than an order of magnitude), making waiters give up
// while the sender is still legitimately retrying.
func (o ReliableOpts) worstChunkWait() sim.Time {
	wait := sim.Time(0)
	t := o.Timeout
	for a := 0; a < o.MaxAttempts; a++ {
		wait += o.QueryDelay + t
		t *= sim.Time(o.Backoff)
	}
	return wait
}

// ReliableBarrier synchronises all nodes through the reliable path: a
// dissemination barrier whose per-round notifications are ReliableWrites of
// the barrier epoch into the peer's flag slots, polled locally over PIO. It
// tolerates the same faults as ReliableWrite; the intrinsic Barrier, by
// contrast, hangs forever if one of its notification packets is lost.
func (e *Endpoint) ReliableBarrier() error {
	r := e.rstate()
	r.epoch++
	rounds := 0
	for 1<<rounds < e.size {
		rounds++
	}
	deadline := e.p.Now() + sim.Time(rounds+1)*r.opts.worstChunkWait()
	for rd := 0; rd < rounds; rd++ {
		peer := (e.rank + 1<<rd) % e.size
		if err := e.ReliableWrite(peer, r.flagBase+uint32(rd), []uint64{r.epoch}); err != nil {
			return fmt.Errorf("dv: reliable barrier round %d: %w", rd, err)
		}
		for {
			e.V.PIOReadInto(e.p, r.flag[:], r.flagBase+uint32(rd))
			if r.flag[0] >= r.epoch {
				break
			}
			if e.p.Now() > deadline {
				return fmt.Errorf("dv: reliable barrier round %d timed out on node %d", rd, e.rank)
			}
			e.p.Wait(r.opts.PollInterval)
		}
	}
	return nil
}
