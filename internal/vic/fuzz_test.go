package vic

import "testing"

// FuzzHeaderRoundTrip drives the header codec with arbitrary field values;
// any encodable combination must decode to itself.
func FuzzHeaderRoundTrip(f *testing.F) {
	f.Add(uint16(3), uint8(1), int8(5), uint32(1234))
	f.Add(uint16(65535), uint8(4), int8(-1), uint32(hdrAddrMask))
	f.Fuzz(func(t *testing.T, dst uint16, opRaw uint8, gcRaw int8, addr uint32) {
		op := Op(opRaw % 5)
		gc := NoGC
		if gcRaw >= 0 {
			gc = int(gcRaw) % 64
		}
		addr &= hdrAddrMask
		h := EncodeHeader(int(dst), op, gc, addr)
		d2, o2, g2, a2 := DecodeHeader(h)
		if d2 != int(dst) || o2 != op || g2 != gc || a2 != addr {
			t.Fatalf("round trip: in (%d %d %d %d) out (%d %d %d %d)",
				dst, op, gc, addr, d2, o2, g2, a2)
		}
	})
}

// FuzzDVMemRanges drives the paged memory with arbitrary range writes; a
// write followed by a read of the same range into a dirty row must return
// the data, and ranges must not bleed into neighbours.
func FuzzDVMemRanges(f *testing.F) {
	f.Add(uint32(0), uint8(10))
	f.Add(uint32(pageWords-3), uint8(7))   // straddles a page boundary
	f.Add(uint32(pageWords-13), uint8(10)) // upper guard word on an unwritten page
	f.Fuzz(func(t *testing.T, addr uint32, nRaw uint8) {
		m := newDVMem(1 << 18)
		n := int(nRaw%64) + 1
		addr %= uint32(m.words - n - 2)
		addr++ // leave a guard word below
		vals := make([]uint64, n)
		for i := range vals {
			vals[i] = uint64(addr) + uint64(i)*7 + 1
		}
		m.writeRange(addr, vals)
		got := make([]uint64, n+2)
		for i := range got {
			got[i] = ^uint64(0) // a reused row: readInto must overwrite every word
		}
		m.readInto(got, addr-1)
		for i := range vals {
			if got[i+1] != vals[i] {
				t.Fatalf("readInto[%d] = %d, want %d", i+1, got[i+1], vals[i])
			}
		}
		if got[0] != 0 || got[n+1] != 0 {
			t.Fatal("write bled outside its range, or readInto kept a stale word")
		}
	})
}
