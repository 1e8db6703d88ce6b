package comm

import (
	"bytes"
	"testing"
)

// TestWordRoundTrip checks the all-to-all payload codec at every tail length
// and one page-sized block: each word is the block's bytes little-endian with
// the last word zero-padded (even when the backing array holds more bytes),
// and unpackWords returns exactly the block.
func TestWordRoundTrip(t *testing.T) {
	lens := []int{4080}
	for n := 0; n <= 17; n++ {
		lens = append(lens, n)
	}
	for _, n := range lens {
		backing := make([]byte, n+8)
		for i := range backing {
			backing[i] = byte(i*37 + 11)
		}
		blk := backing[:n]
		words := make([]uint64, wordsFor(n))
		for i := range words {
			words[i] = wordAt(blk, i)
			var want uint64
			for j := 0; j < 8 && 8*i+j < n; j++ {
				want |= uint64(blk[8*i+j]) << (8 * j)
			}
			if words[i] != want {
				t.Fatalf("n=%d: word %d = %#x, want %#x", n, i, words[i], want)
			}
		}
		if got := unpackWords(words, n); !bytes.Equal(got, blk) || len(got) != n {
			t.Fatalf("n=%d: round trip gave %v, want %v", n, got, blk)
		}
	}
}
