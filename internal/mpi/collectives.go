package mpi

import (
	"encoding/binary"
	"math"
)

// collTag derives a fresh internal tag space for one collective invocation.
// All ranks execute collectives in the same order, so sequence numbers agree
// across the communicator.
func (c *Comm) collTag(round int) int {
	return ctrlTagBase + (c.collSeq<<8 | round)
}

// Barrier blocks until every rank has entered the barrier. It uses the
// dissemination algorithm: ceil(log2(n)) rounds of paired send/recv. Unlike
// the Data Vortex intrinsic barrier, every round pays full MPI software
// overheads — the source of the steep scaling in the paper's Figure 4.
func (c *Comm) Barrier() {
	n := c.Size()
	if n == 1 {
		return
	}
	c.collSeq++
	for r, dist := 0, 1; dist < n; r, dist = r+1, dist*2 {
		dst := (c.rank + dist) % n
		src := (c.rank - dist + n) % n
		sreq := c.isend(dst, c.collTag(r), nil)
		c.Wait(c.Irecv(src, c.collTag(r)))
		c.Wait(sreq)
	}
}

// Bcast distributes root's data to every rank along a binomial tree and
// returns the received slice (root returns data unchanged).
func (c *Comm) Bcast(root int, data []byte) []byte {
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
		data, _ = c.Recv(parent, tag)
	}
	// Forward to children: set each bit above the lowest set bit.
	for bit := 1; bit < n; bit *= 2 {
		if vrank&(bit-1) != 0 || vrank&bit != 0 {
			continue
		}
		child := vrank | bit
		if child < n {
			c.Wait(c.isend((child+root)%n, tag, data))
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
// result is returned at root (other ranks receive nil).
func (c *Comm) Reduce(root int, vals []float64, op ReduceOp) []float64 {
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
			c.Wait(c.isend(parent, tag, Float64sToBytes(acc)))
			return nil
		}
		if child < n {
			data, _ := c.Recv((child+root)%n, tag)
			op(acc, BytesToFloat64s(data))
		}
	}
	return acc
}

// Allreduce combines vals across all ranks and returns the result on every
// rank (reduce to rank 0, then broadcast).
func (c *Comm) Allreduce(vals []float64, op ReduceOp) []float64 {
	acc := c.Reduce(0, vals, op)
	var wire []byte
	if c.rank == 0 {
		wire = Float64sToBytes(acc)
	}
	return BytesToFloat64s(c.Bcast(0, wire))
}

// Alltoall exchanges send[i] with rank i and returns recv where recv[i] is
// the slice sent by rank i. Slices may be empty or nil (the v-variant and
// the uniform variant coincide in this interface). The exchange is pairwise:
// n-1 rounds of simultaneous send/recv with a round-specific partner.
func (c *Comm) Alltoall(send [][]byte) [][]byte {
	n := c.Size()
	if len(send) != n {
		panic("mpi: Alltoall requires one slice per rank")
	}
	c.collSeq++
	tag := c.collTag(2)
	recv := make([][]byte, n)
	recv[c.rank] = send[c.rank]
	for step := 1; step < n; step++ {
		dst := (c.rank + step) % n
		src := (c.rank - step + n) % n
		sreq := c.isend(dst, tag, send[dst])
		data, _ := c.Wait(c.Irecv(src, tag))
		recv[src] = data
		c.Wait(sreq)
	}
	return recv
}

// Allgather collects each rank's data on every rank (ring algorithm).
func (c *Comm) Allgather(data []byte) [][]byte {
	n := c.Size()
	out := make([][]byte, n)
	out[c.rank] = data
	if n == 1 {
		return out
	}
	c.collSeq++
	tag := c.collTag(3)
	right := (c.rank + 1) % n
	left := (c.rank - 1 + n) % n
	cur := c.rank
	for step := 0; step < n-1; step++ {
		sreq := c.isend(right, tag, out[cur])
		data, _ := c.Wait(c.Irecv(left, tag))
		cur = (cur - 1 + n) % n
		out[cur] = data
		c.Wait(sreq)
	}
	return out
}

// ---------------------------------------------------------------------------
// Wire helpers: typed slices <-> bytes (little endian).

// Float64sToBytes serialises a float64 slice.
func Float64sToBytes(v []float64) []byte {
	b := make([]byte, 8*len(v))
	for i, x := range v {
		binary.LittleEndian.PutUint64(b[8*i:], math.Float64bits(x))
	}
	return b
}

// BytesToFloat64s deserialises a float64 slice.
func BytesToFloat64s(b []byte) []float64 {
	v := make([]float64, len(b)/8)
	for i := range v {
		v[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
	}
	return v
}

// Uint64sToBytes serialises a uint64 slice.
func Uint64sToBytes(v []uint64) []byte {
	b := make([]byte, 8*len(v))
	for i, x := range v {
		binary.LittleEndian.PutUint64(b[8*i:], x)
	}
	return b
}

// BytesToUint64s deserialises a uint64 slice.
func BytesToUint64s(b []byte) []uint64 {
	v := make([]uint64, len(b)/8)
	for i := range v {
		v[i] = binary.LittleEndian.Uint64(b[8*i:])
	}
	return v
}
