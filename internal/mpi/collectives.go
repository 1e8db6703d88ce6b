package mpi

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"slices"
)

// collTag derives a fresh internal tag space for one collective invocation.
// All ranks execute collectives in the same order, so sequence numbers agree
// across the communicator.
func (c *Comm) collTag(round int) int {
	return ctrlTagBase + (c.collSeq<<8 | round)
}

// reclaim opens every collective: the receive buffers inside the previous
// collective's result go back on the free list. Whatever Alltoall, Allgather
// or Bcast returned is dead from here on.
func (c *Comm) reclaim() {
	for i, b := range c.lent {
		c.release(b)
		c.lent[i] = nil
	}
	c.lent = c.lent[:0]
}

// lend records a received buffer as part of this collective's result.
func (c *Comm) lend(b []byte) []byte {
	c.lent = append(c.lent, b)
	return b
}

// result returns the n-entry header Alltoall and Allgather fill and return,
// kept across calls.
func (c *Comm) result(n int) [][]byte {
	if cap(c.recv) < n {
		c.recv = make([][]byte, n)
	}
	c.recv = c.recv[:n]
	clear(c.recv)
	return c.recv
}

// Barrier blocks until every rank has entered the barrier. It uses the
// dissemination algorithm: ceil(log2(n)) rounds of paired send/recv. Unlike
// the Data Vortex intrinsic barrier, every round pays full MPI software
// overheads — the source of the steep scaling in the paper's Figure 4.
func (c *Comm) Barrier() {
	c.reclaim()
	n := c.Size()
	if n == 1 {
		return
	}
	c.collSeq++
	c.rounds(opBarrier, 0, bits.Len(uint(n-1)), nil)
}

// Bcast distributes root's data to every rank along a binomial tree and
// returns the received slice (root returns data unchanged), valid until this
// rank's next collective.
func (c *Comm) Bcast(root int, data []byte) []byte {
	c.reclaim()
	n := c.Size()
	if n == 1 {
		return data
	}
	c.collSeq++
	tag := c.collTag(0)
	vrank := (c.rank - root + n) % n
	if vrank != 0 {
		// Receive from the parent: clear the lowest set bit.
		parent := ((vrank & (vrank - 1)) + root) % n
		data, _ = c.wait(c.irecv(parent, tag))
		c.lend(data)
	}
	// Forward to children: set each bit above the lowest set bit.
	for bit := 1; bit < n; bit *= 2 {
		if vrank&(bit-1) != 0 || vrank&bit != 0 {
			continue
		}
		child := vrank | bit
		if child < n {
			c.send((child+root)%n, tag, data)
		}
	}
	return data
}

// ReduceOp combines src into dst element-wise (len(dst) == len(src)).
type ReduceOp func(dst, src []float64)

// Standard reduction operators.
var (
	Sum ReduceOp = func(dst, src []float64) {
		for i := range dst {
			dst[i] += src[i]
		}
	}
	Max ReduceOp = func(dst, src []float64) {
		for i := range dst {
			dst[i] = math.Max(dst[i], src[i])
		}
	}
)

// Reduce combines vals from all ranks with op along a binomial tree; the
// result, a new slice, is returned at root (other ranks receive nil).
func (c *Comm) Reduce(root int, vals []float64, op ReduceOp) []float64 {
	c.reclaim()
	n := c.Size()
	acc := append([]float64(nil), vals...)
	if n == 1 {
		return acc
	}
	c.collSeq++
	tag := c.collTag(1)
	vrank := (c.rank - root + n) % n
	for bit := 1; bit < n; bit *= 2 {
		if vrank&(bit-1) != 0 {
			break
		}
		child := vrank | bit
		if vrank&bit != 0 {
			parent := ((vrank &^ bit) + root) % n
			c.wire = AppendFloat64s(c.wire[:0], acc)
			c.send(parent, tag, c.wire)
			return nil
		}
		if child < n {
			data, _ := c.wait(c.irecv((child+root)%n, tag))
			c.vals = Float64sInto(c.vals, data)
			c.release(data)
			op(acc, c.vals)
		}
	}
	return acc
}

// Allreduce combines vals across all ranks and returns the result, a slice
// the caller owns, on every rank (reduce to rank 0, then broadcast).
func (c *Comm) Allreduce(vals []float64, op ReduceOp) []float64 {
	acc := c.Reduce(0, vals, op)
	var wire []byte
	if c.rank == 0 {
		c.wire = AppendFloat64s(c.wire[:0], acc)
		wire = c.wire
	}
	return Float64sInto(acc, c.Bcast(0, wire))
}

// Alltoall exchanges send[i] with rank i and returns recv where recv[i] is
// the slice sent by rank i. Slices may be empty or nil (the v-variant and
// the uniform variant coincide in this interface). The exchange is pairwise:
// n-1 rounds of simultaneous send/recv with a round-specific partner. The
// result (header and blocks) is valid until this rank's next collective;
// send is only read, so ranks may share one.
func (c *Comm) Alltoall(send [][]byte) [][]byte {
	c.reclaim()
	n := c.Size()
	if len(send) != n {
		panic(fmt.Sprintf("mpi: rank %d: Alltoall got %d blocks for a communicator of size %d", c.rank, len(send), n))
	}
	c.collSeq++
	recv := c.result(n)
	recv[c.rank] = send[c.rank]
	c.rounds(opAlltoall, c.collTag(2), n-1, send)
	return recv
}

// Allgather collects each rank's data on every rank (ring algorithm). The
// result is valid until this rank's next collective.
func (c *Comm) Allgather(data []byte) [][]byte {
	c.reclaim()
	n := c.Size()
	out := c.result(n)
	out[c.rank] = data
	if n == 1 {
		return out
	}
	c.collSeq++
	c.rounds(opAllgather, c.collTag(3), n-1, nil)
	return out
}

// ---------------------------------------------------------------------------
// Wire helpers: typed slices <-> bytes (little endian). Both directions work
// in storage the caller brings, so a loop that exchanges every round encodes
// and decodes without allocating once its scratch has grown.

// AppendFloat64s appends the encoding of v to dst, growing it at most once,
// and returns the extended slice.
func AppendFloat64s(dst []byte, v []float64) []byte {
	dst = slices.Grow(dst, 8*len(v))
	for _, x := range v {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(x))
	}
	return dst
}

// Float64sInto decodes b into dst's storage (grown when too short) and
// returns the len(b)/8 values.
func Float64sInto(dst []float64, b []byte) []float64 {
	if n := len(b) / 8; cap(dst) < n {
		dst = make([]float64, n)
	} else {
		dst = dst[:n]
	}
	for i := range dst {
		dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
	}
	return dst
}

// AppendUint64s appends the encoding of v to dst, growing it at most once,
// and returns the extended slice.
func AppendUint64s(dst []byte, v []uint64) []byte {
	dst = slices.Grow(dst, 8*len(v))
	for _, x := range v {
		dst = binary.LittleEndian.AppendUint64(dst, x)
	}
	return dst
}

// AppendUint64 appends the encoding of one word to dst: AppendUint64s for a
// sender that produces its block a word at a time.
func AppendUint64(dst []byte, x uint64) []byte {
	return binary.LittleEndian.AppendUint64(dst, x)
}

// Uint64At decodes word i of b in place, for a receiver that consumes a
// block as it reads it and so needs no decode scratch.
func Uint64At(b []byte, i int) uint64 {
	return binary.LittleEndian.Uint64(b[8*i:])
}

// Uint64sInto decodes b into dst's storage (grown when too short) and
// returns the len(b)/8 values.
func Uint64sInto(dst []uint64, b []byte) []uint64 {
	if n := len(b) / 8; cap(dst) < n {
		dst = make([]uint64, n)
	} else {
		dst = dst[:n]
	}
	for i := range dst {
		dst[i] = binary.LittleEndian.Uint64(b[8*i:])
	}
	return dst
}
