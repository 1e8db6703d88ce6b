// Wire-format and collective-helper aliases. Workload kernels describe
// fine-grained Data Vortex traffic with these types and pack MPI payloads
// with these helpers, into scratch they keep (the two that stream single
// words, gups and bfs, use the one-word forms on their send and receive
// blocks); routing everything through comm keeps the app
// packages free of direct internal/vic and internal/mpi imports (enforced
// by a build check), so a fabric-layer change never fans out into eleven
// app edits.

package comm

import (
	"repro/internal/mpi"
	"repro/internal/vic"
)

// Word is one fine-grained network transaction: destination node, command,
// group counter, DV Memory address, and the 8-byte payload.
type Word = vic.Word

// Op is the packet command carried in a Word.
type Op = vic.Op

// Packet commands (see vic.Op for the wire semantics).
const (
	// OpWrite stores the payload at a DV Memory address.
	OpWrite = vic.OpWrite
	// OpFIFO pushes the payload onto the destination's surprise FIFO.
	OpFIFO = vic.OpFIFO
	// OpDecGC subtracts the payload value from a destination group counter.
	OpDecGC = vic.OpDecGC
	// OpQuery reads a DV Memory address and returns the value to the sender.
	OpQuery = vic.OpQuery
)

// NoGC marks a transaction that references no group counter.
const NoGC = vic.NoGC

// SendMode selects the host→network path of Figure 3.
type SendMode = vic.SendMode

// Host→network paths (see vic.SendMode for the cost model).
const (
	// PIO writes header+payload across the PCIe lane.
	PIO = vic.PIO
	// PIOCached writes payloads only; headers were pre-cached.
	PIOCached = vic.PIOCached
	// DMACached moves payloads with the DMA engine, headers pre-cached.
	DMACached = vic.DMACached
)

// DMAProgram is a persistent staged scatter (see vic.DMAProgram).
type DMAProgram = vic.DMAProgram

// ReadProgram is a persistent staged DMA read (see vic.ReadProgram).
type ReadProgram = vic.ReadProgram

// EncodeHeader packs routing and command fields into a header word (used
// by query-reply kernels that stage reply headers themselves).
func EncodeHeader(dstVIC int, op Op, gc int, addr uint32) uint64 {
	return vic.EncodeHeader(dstVIC, op, gc, addr)
}

// Request is an outstanding non-blocking MPI operation.
type Request = mpi.Request

// Reduction operators for Comm.Reduce/Allreduce.
var (
	// Sum adds operands element-wise.
	Sum = mpi.Sum
	// Max keeps the element-wise maximum.
	Max = mpi.Max
)

// AnySource matches any sender in a receive.
const AnySource = mpi.AnySource

// AppendUint64s appends words little-endian, for byte-granular transports,
// to dst (the caller's scratch) and returns the extended slice.
func AppendUint64s(dst []byte, v []uint64) []byte { return mpi.AppendUint64s(dst, v) }

// AppendUint64 appends one word in the same layout.
func AppendUint64(dst []byte, x uint64) []byte { return mpi.AppendUint64(dst, x) }

// Uint64At decodes word i of a word payload in place.
func Uint64At(b []byte, i int) uint64 { return mpi.Uint64At(b, i) }

// Uint64sInto decodes a little-endian word payload into dst's storage.
func Uint64sInto(dst []uint64, b []byte) []uint64 { return mpi.Uint64sInto(dst, b) }

// AppendFloat64s appends float64s little-endian to dst.
func AppendFloat64s(dst []byte, v []float64) []byte { return mpi.AppendFloat64s(dst, v) }

// Float64sInto decodes a little-endian float64 payload into dst's storage.
func Float64sInto(dst []float64, b []byte) []float64 { return mpi.Float64sInto(dst, b) }
