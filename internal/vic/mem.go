package vic

import "fmt"

// pageWords is the allocation granularity of the lazily-populated DV Memory
// model. The real VIC carries 32 MB of QDR SRAM; simulating hundreds of VICs
// across many test clusters makes eager allocation wasteful, so pages
// materialise on first touch. Runs touch little of it: a 256-node
// all-to-all writes 36 KB of each VIC's memory (two 256-word control arrays
// and 256 rows of 16 words), which a 128 KB page rounded up 3.5-fold and
// 8 KB pages round up to 40 KB. Halving again would save at most 4 KB a VIC
// there, for twice the map entries on runs that touch a whole table (GUPS).
const pageWords = 1 << 10 // 8 KB pages

// dvMem models the VIC's DV Memory: word-addressable SRAM where only the
// last-written value of a slot is visible.
type dvMem struct {
	words int
	pages map[uint32][]uint64
}

func newDVMem(words int) dvMem {
	return dvMem{words: words, pages: make(map[uint32][]uint64)}
}

func (m *dvMem) check(addr uint32, n int) {
	if n < 0 || int(addr)+n > m.words {
		panic(fmt.Sprintf("vic: DV Memory access [%d,%d) out of range (%d words)",
			addr, int(addr)+n, m.words))
	}
}

func (m *dvMem) page(addr uint32) []uint64 {
	id := addr / pageWords
	pg := m.pages[id]
	if pg == nil {
		pg = make([]uint64, pageWords)
		m.pages[id] = pg
	}
	return pg
}

func (m *dvMem) read(addr uint32) uint64 {
	m.check(addr, 1)
	if pg := m.pages[addr/pageWords]; pg != nil {
		return pg[addr%pageWords]
	}
	return 0
}

func (m *dvMem) write(addr uint32, val uint64) {
	m.check(addr, 1)
	m.page(addr)[addr%pageWords] = val
}

// readInto copies the len(dst) words at addr into dst; words on pages never
// written read as zero.
func (m *dvMem) readInto(dst []uint64, addr uint32) {
	n := len(dst)
	m.check(addr, n)
	for i := 0; i < n; {
		a := addr + uint32(i)
		off := int(a % pageWords)
		run := pageWords - off
		if run > n-i {
			run = n - i
		}
		if pg := m.pages[a/pageWords]; pg != nil {
			copy(dst[i:i+run], pg[off:off+run])
		} else {
			clear(dst[i : i+run])
		}
		i += run
	}
}

func (m *dvMem) writeRange(addr uint32, vals []uint64) {
	m.check(addr, len(vals))
	for i := 0; i < len(vals); {
		a := addr + uint32(i)
		off := int(a % pageWords)
		run := pageWords - off
		if run > len(vals)-i {
			run = len(vals) - i
		}
		copy(m.page(a)[off:off+run], vals[i:i+run])
		i += run
	}
}
