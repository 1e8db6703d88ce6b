package main

import (
	"bytes"
	"compress/gzip"
	"runtime/pprof"
	"testing"
	"time"
)

// pbEnc builds protobuf messages for the synthetic profile.
type pbEnc struct{ b []byte }

func (e *pbEnc) varint(v uint64) {
	for v >= 0x80 {
		e.b = append(e.b, byte(v)|0x80)
		v >>= 7
	}
	e.b = append(e.b, byte(v))
}
func (e *pbEnc) uint(field int, v uint64) { e.varint(uint64(field)<<3 | 0); e.varint(v) }
func (e *pbEnc) bytes(field int, b []byte) {
	e.varint(uint64(field)<<3 | 2)
	e.varint(uint64(len(b)))
	e.b = append(e.b, b...)
}
func (e *pbEnc) packed(field int, vs ...uint64) {
	var p pbEnc
	for _, v := range vs {
		p.varint(v)
	}
	e.bytes(field, p.b)
}

func gzipped(t *testing.T, b []byte) []byte {
	t.Helper()
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	if _, err := zw.Write(b); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return gz.Bytes()
}

// syntheticProfile has two samples over three functions; location 2 holds an
// inlined pair (leaf first), and the second sample's ids are not packed.
func syntheticProfile(t *testing.T) []byte {
	t.Helper()
	strs := []string{"", "samples", "count", "runtime.chansend", "repro/internal/sim.(*Proc).park", "repro/internal/apps/gups.runDV"}
	var prof pbEnc
	var st pbEnc
	st.uint(1, 1)
	st.uint(2, 2)
	prof.bytes(1, st.b) // sample_type, skipped by the decoder

	var s1 pbEnc
	s1.packed(1, 1, 2) // location ids, leaf first
	s1.packed(2, 7, 70000000)
	prof.bytes(2, s1.b)
	var s2 pbEnc
	s2.uint(1, 2)
	s2.uint(2, 3)
	s2.uint(2, 30000000)
	prof.bytes(2, s2.b)

	line := func(fn uint64) []byte {
		var l pbEnc
		l.uint(1, fn)
		l.uint(2, 42)
		return l.b
	}
	var l1 pbEnc
	l1.uint(1, 1)
	l1.uint(3, 0xdeadbeef)
	l1.bytes(4, line(1))
	prof.bytes(4, l1.b)
	var l2 pbEnc
	l2.uint(1, 2)
	l2.bytes(4, line(2))
	l2.bytes(4, line(3))
	prof.bytes(4, l2.b)

	for id, name := range map[uint64]uint64{1: 3, 2: 4, 3: 5} {
		var f pbEnc
		f.uint(1, id)
		f.uint(2, name)
		f.uint(4, 1)
		prof.bytes(5, f.b)
	}
	for _, s := range strs {
		prof.bytes(6, []byte(s))
	}
	prof.uint(9, 12345) // time_nanos, skipped
	// A fixed64 field the schema does not have: must be skipped, not choke.
	prof.varint(15<<3 | 1)
	prof.b = append(prof.b, 1, 2, 3, 4, 5, 6, 7, 8)

	return gzipped(t, prof.b)
}

func TestDecodeSyntheticProfile(t *testing.T) {
	samples, err := decodeProfile(syntheticProfile(t))
	if err != nil {
		t.Fatal(err)
	}
	want := []stackSample{
		{7, []string{"runtime.chansend", "repro/internal/sim.(*Proc).park", "repro/internal/apps/gups.runDV"}},
		{3, []string{"repro/internal/sim.(*Proc).park", "repro/internal/apps/gups.runDV"}},
	}
	if len(samples) != len(want) {
		t.Fatalf("got %d samples, want %d", len(samples), len(want))
	}
	for i, w := range want {
		g := samples[i]
		if g.count != w.count || len(g.stack) != len(w.stack) {
			t.Fatalf("sample %d = %+v, want %+v", i, g, w)
		}
		for j := range w.stack {
			if g.stack[j] != w.stack[j] {
				t.Fatalf("sample %d frame %d = %q, want %q", i, j, g.stack[j], w.stack[j])
			}
		}
	}
	shares := layerShares(samples)
	if shares["sim.handoff"] != 1 {
		t.Errorf("sim.handoff share = %v, want 1 (shares %v)", shares["sim.handoff"], shares)
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	if _, err := decodeProfile([]byte("not gzip")); err == nil {
		t.Error("plain bytes decoded without error")
	}
	zr, err := gzip.NewReader(bytes.NewReader(syntheticProfile(t)))
	if err != nil {
		t.Fatal(err)
	}
	var raw bytes.Buffer
	if _, err := raw.ReadFrom(zr); err != nil {
		t.Fatal(err)
	}
	cut := gzipped(t, raw.Bytes()[:raw.Len()-5]) // ends inside the last field
	if _, err := decodeProfile(cut); err == nil {
		t.Error("truncated profile decoded without error")
	}
}

var spinSink uint64

//go:noinline
func spinForProfile(d time.Duration) {
	for t0 := time.Now(); time.Since(t0) < d; {
		for i := 0; i < 1<<16; i++ {
			spinSink = spinSink*6364136223846793005 + 1
		}
	}
}

// TestDecodeRuntimeProfile decodes what runtime/pprof really writes.
func TestDecodeRuntimeProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiling unavailable:", err)
	}
	spinForProfile(300 * time.Millisecond)
	pprof.StopCPUProfile()
	samples, err := decodeProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var total, spinning int64
	for _, s := range samples {
		total += s.count
		for _, fn := range s.stack {
			if fn == "repro/benchmark.spinForProfile" || fn == "main.spinForProfile" {
				spinning += s.count
				break
			}
		}
	}
	if total == 0 {
		t.Skip("the profiler took no samples")
	}
	// Most samples, without the race detector; under it the unwinder loses
	// all but a few, so only their presence is asserted.
	if spinning == 0 {
		t.Errorf("none of %d samples names spinForProfile; the decoder lost the stacks", total)
	}
}
