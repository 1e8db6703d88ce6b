// Data Vortex backend: identity and barriers forward to the §III API
// endpoint; the all-to-all is built from counted one-sided writes — the one
// collective the fabric does not provide natively.

package comm

import (
	"encoding/binary"
	"fmt"

	"repro/internal/dv"
	"repro/internal/mpi"
	"repro/internal/sim"
	"repro/internal/vic"
)

// dvBackend drives one node's Data Vortex rail-0 endpoint.
type dvBackend struct {
	e *dv.Endpoint

	// All-to-all exchange state, allocated collectively on first use.
	a2aInit bool
	a2aLen  uint32   // P incoming block lengths (bytes), indexed by source
	a2aMax  uint32   // P per-source capacity proposals (words)
	a2aGC   [2]int   // control / payload counters
	a2aBuf  uint32   // P rows of a2aCap words each
	a2aCap  int      // payload row capacity in words
	a2aRow  []uint64 // host row every source's block is read back into
	a2aCtl  []uint64 // host rows the P lengths, then the P proposals, are read into
}

func (b *dvBackend) Net() Net  { return DV }
func (b *dvBackend) Rank() int { return b.e.Rank() }
func (b *dvBackend) Size() int { return b.e.Size() }

func (b *dvBackend) Barrier()               { b.e.Barrier() }
func (b *dvBackend) ReliableBarrier() error { return b.e.ReliableBarrier() }

func (b *dvBackend) Endpoint() *dv.Endpoint { return b.e }
func (b *dvBackend) MPI() *mpi.Comm         { return nil }

// Alltoall emulates the byte-block exchange with counted writes into a
// symmetric region: a control round announces block lengths and agrees on
// a per-source row capacity (the global maximum, so every node's
// allocation sequence stays symmetric), then payload words land directly
// in the receivers' rows. Capacity grows monotonically; the region is
// reused across calls.
func (b *dvBackend) Alltoall(blocks [][]byte) [][]byte {
	e := b.e
	p := e.Size()
	if len(blocks) != p {
		panic(fmt.Sprintf("comm: Alltoall got %d blocks for %d nodes", len(blocks), p))
	}
	out := make([][]byte, p)
	out[e.Rank()] = append([]byte(nil), blocks[e.Rank()]...)
	if p == 1 {
		return out
	}
	if !b.a2aInit {
		// First call: every node allocates the control state in lockstep.
		b.a2aInit = true
		b.a2aLen = e.Alloc(p)
		b.a2aMax = e.Alloc(p)
		b.a2aGC[0] = e.AllocGC()
		b.a2aGC[1] = e.AllocGC()
		b.a2aCtl = make([]uint64, 2*p)
	}
	localMax := 0
	for _, blk := range blocks {
		if w := wordsFor(len(blk)); w > localMax {
			localMax = w
		}
	}
	// Control round: publish my block lengths and capacity proposal, two
	// words per peer in peer order, generated as the VIC takes them.
	e.ArmGC(b.a2aGC[0], int64(2*(p-1)))
	e.Barrier() // every control counter armed
	// Both rounds' generators hand the VIC one word at a time, through next.
	var next vic.Word
	e.ScatterN(vic.PIOCached, 2*(p-1), func(i int) *vic.Word {
		d := i / 2
		if d >= e.Rank() {
			d++
		}
		next = vic.Word{Dst: d, Op: vic.OpWrite, GC: b.a2aGC[0], Addr: b.a2aLen + uint32(e.Rank()), Val: uint64(len(blocks[d]))}
		if i%2 == 1 {
			next.Addr, next.Val = b.a2aMax+uint32(e.Rank()), uint64(localMax)
		}
		return &next
	})
	e.WaitGC(b.a2aGC[0], sim.Forever)
	lens, maxes := b.a2aCtl[:p], b.a2aCtl[p:]
	e.ReadInto(lens, b.a2aLen)
	e.ReadInto(maxes, b.a2aMax)
	rowCap := localMax
	for src, w := range maxes {
		if src != e.Rank() && int(w) > rowCap {
			rowCap = int(w)
		}
	}
	if rowCap > b.a2aCap {
		// Global maximum, so every node grows identically and the old
		// region is abandoned symmetrically.
		b.a2aBuf = e.Alloc(p * rowCap)
		b.a2aCap = rowCap
		b.a2aRow = make([]uint64, rowCap)
	}
	expected := int64(0)
	for src := 0; src < p; src++ {
		if src != e.Rank() {
			expected += int64(wordsFor(int(lens[src])))
		}
	}
	// Payload round.
	e.ArmGC(b.a2aGC[1], expected)
	e.Barrier() // every payload counter armed, capacities agreed
	nWords := 0
	for d, blk := range blocks {
		if d != e.Rank() {
			nWords += wordsFor(len(blk))
		}
	}
	// The words stream into the VIC as it takes them: a (destination, index)
	// cursor walks the blocks in destination order, skipping self and empty
	// blocks, so the backlog exists once, in the switch's port queue.
	row := b.a2aBuf + uint32(e.Rank()*b.a2aCap)
	d, j := 0, 0
	e.ScatterN(vic.DMACached, nWords, func(int) *vic.Word {
		for d == e.Rank() || j == wordsFor(len(blocks[d])) {
			d, j = d+1, 0
		}
		next = vic.Word{Dst: d, Op: vic.OpWrite, GC: b.a2aGC[1], Addr: row + uint32(j), Val: wordAt(blocks[d], j)}
		j++
		return &next
	})
	e.WaitGC(b.a2aGC[1], sim.Forever)
	for src := 0; src < p; src++ {
		if src == e.Rank() {
			continue
		}
		n := int(lens[src])
		if n == 0 {
			out[src] = []byte{}
			continue
		}
		raw := b.a2aRow[:wordsFor(n)]
		e.ReadInto(raw, b.a2aBuf+uint32(src*b.a2aCap))
		out[src] = unpackWords(raw, n)
	}
	e.Barrier() // reads done: rows may be overwritten by the next call
	return out
}

// wordsFor returns the 8-byte words covering n payload bytes.
func wordsFor(n int) int { return (n + 7) / 8 }

// wordAt returns word i of block b read little-endian, the last word
// zero-padded.
func wordAt(b []byte, i int) uint64 {
	var w [8]byte
	copy(w[:], b[8*i:])
	return binary.LittleEndian.Uint64(w[:])
}

// unpackWords decodes n bytes from a little-endian word row.
func unpackWords(w []uint64, n int) []byte {
	b := make([]byte, n)
	for i := 0; i < n; i += 8 {
		var word [8]byte
		binary.LittleEndian.PutUint64(word[:], w[i/8])
		copy(b[i:], word[:])
	}
	return b
}
