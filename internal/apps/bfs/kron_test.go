package bfs

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"testing"
)

// streamDigest hashes edges [0, n) of a (seed, scale) stream, each as two
// little-endian int64s.
func streamDigest(seed uint64, scale int, n int64) string {
	h := sha256.New()
	var b [16]byte
	for i := int64(0); i < n; i++ {
		u, v := GenerateEdge(seed, scale, i)
		binary.LittleEndian.PutUint64(b[:8], uint64(u))
		binary.LittleEndian.PutUint64(b[8:], uint64(v))
		h.Write(b[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestStreamFrozen pins the Kronecker edge stream: the digests were recorded
// from the float-compare generator (PR 17's tree) before it was rewritten, so
// every golden Report that depends on the graph depends on these.
func TestStreamFrozen(t *testing.T) {
	for _, c := range []struct {
		seed  uint64
		scale int
		want  string
	}{
		{1, 13, "b352c7601b6f3c7460e17007c50ae479ea17f2fb9031a5c6ea7951857f460606"},
		{7, 12, "c604e473ac9741246637f10b8d3f785064e9373d46f11d0e349af01db1348ed5"},
		{1, 16, "6e51aaff4cabcdae050160e014b3e2ed17a267ab9e671f12194dad77e45db9e8"},
		{42, 20, "0393e800823594f4bee8a49b89114349af43f8714ebb341432b38839eea82d96"},
	} {
		if got := streamDigest(c.seed, c.scale, 1<<16); got != c.want {
			t.Errorf("seed %d scale %d: first 2^16 edges hash to %s, want %s", c.seed, c.scale, got, c.want)
		}
	}
}
