package vic

import "fmt"

// Op is the VIC-level packet opcode, encoded in the 64-bit packet header.
// The Data Vortex API exposes exactly these behaviours (§III): writes into
// DV Memory (optionally counted by a group counter), surprise-FIFO pushes,
// group-counter control packets, and "query" packets whose payload is a
// return header used by the receiving VIC to assemble a reply without host
// intervention.
type Op uint8

const (
	// OpWrite stores the payload at a DV Memory address.
	OpWrite Op = iota
	// OpFIFO pushes the payload onto the surprise FIFO.
	OpFIFO
	// OpSetGC sets group counter GC to the payload value.
	OpSetGC
	// OpDecGC subtracts the payload value from group counter GC.
	OpDecGC
	// OpQuery reads the DV Memory address and sends the value to the VIC
	// encoded in the payload, which is used verbatim as the reply header.
	OpQuery
)

// NoGC marks a packet that does not reference a group counter.
const NoGC = -1

// Header field layout (64 bits):
//
//	bits  0..23  DV Memory word address (or counter id for OpSetGC/OpDecGC)
//	bits 24..29  group counter id
//	bit  30      group-counter-valid flag
//	bits 32..47  destination VIC id
//	bits 48..51  opcode
const (
	hdrAddrMask = 0xFFFFFF
	hdrGCShift  = 24
	hdrGCMask   = 0x3F
	hdrGCValid  = 1 << 30
	hdrVICShift = 32
	hdrVICMask  = 0xFFFF
	hdrOpShift  = 48
	hdrOpMask   = 0xF
)

// EncodeHeader packs the routing and command fields into a header word.
func EncodeHeader(dstVIC int, op Op, gc int, addr uint32) uint64 {
	if uint64(addr) > hdrAddrMask {
		panic(fmt.Sprintf("vic: address %d exceeds header field", addr))
	}
	h := uint64(addr) | uint64(dstVIC&hdrVICMask)<<hdrVICShift | uint64(op&hdrOpMask)<<hdrOpShift
	if gc != NoGC {
		h |= uint64(gc&hdrGCMask)<<hdrGCShift | hdrGCValid
	}
	return h
}

// DecodeHeader unpacks a header word.
func DecodeHeader(h uint64) (dstVIC int, op Op, gc int, addr uint32) {
	addr = uint32(h & hdrAddrMask)
	gc = NoGC
	if h&hdrGCValid != 0 {
		gc = int(h >> hdrGCShift & hdrGCMask)
	}
	dstVIC = int(h >> hdrVICShift & hdrVICMask)
	op = Op(h >> hdrOpShift & hdrOpMask)
	return
}

// Word describes one packet to send: the building block of every Data Vortex
// transfer. A transfer is a slice of Words handed to the VIC through one of
// the host paths (PIO or DMA).
type Word struct {
	Dst  int    // destination VIC
	Op   Op     // what the receiving VIC does with the payload
	GC   int    // group counter to decrement at the destination (NoGC: none)
	Addr uint32 // DV Memory address (or counter id for OpSetGC/OpDecGC)
	Val  uint64 // payload
}

// header builds the wire header for the word.
func (w *Word) header() uint64 { return EncodeHeader(w.Dst, w.Op, w.GC, w.Addr) }
