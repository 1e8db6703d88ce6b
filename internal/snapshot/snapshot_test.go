package snapshot

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/sim"
)

func sample() *Snapshot {
	s := &Snapshot{Header: Header{At: 20 * sim.Microsecond, Seq: 3}}
	e := NewEncoder()
	e.U64(1)
	e.Time(7 * sim.Nanosecond)
	e.F64(3.5)
	s.Add("kernel", e.Bytes())
	e = NewEncoder()
	e.U64s([]uint64{9, 8, 7})
	e.String("rng-stream")
	s.Add("rng", e.Bytes())
	s.Add("empty", nil)
	return s
}

// auditOf runs Audit over one boundary per pass: want first, got second.
func auditOf(want, got *Snapshot) error {
	pass := []*Snapshot{want, got}
	_, err := Audit(func(sink func(*Snapshot) error) error {
		s := pass[0]
		pass = pass[1:]
		return sink(s)
	})
	return err
}

func TestDiffMismatches(t *testing.T) {
	if err := auditOf(sample(), sample()); err != nil {
		t.Fatalf("audit of equal snapshots: %v", err)
	}
	for _, tc := range []struct {
		field string
		mut   func(*Snapshot)
	}{
		{"at", func(s *Snapshot) { s.Header.At++ }},
		{"section:rng", func(s *Snapshot) { s.Sections[1].Data[0]++ }},
		{"section:empty", func(s *Snapshot) { s.Sections[2].Data = []byte{0} }},
		{"section order", func(s *Snapshot) { s.Sections[0].Name = "core" }},
		{"sections", func(s *Snapshot) { s.Sections = s.Sections[:2] }},
	} {
		b := sample()
		tc.mut(b)
		var me *MismatchError
		if err := auditOf(sample(), b); !errors.As(err, &me) {
			t.Fatalf("%s: got %v, want *MismatchError", tc.field, err)
		}
		if me.Field != tc.field || me.At != sample().Header.At {
			t.Errorf("mutation reported field %q at %v, want %q at %v", me.Field, me.At, tc.field, sample().Header.At)
		}
	}
}

// TestAuditBoundaryCounts: a second pass that captures more or fewer
// boundaries than the first fails the audit by name, and a sink error from
// either pass comes back as it is.
func TestAuditBoundaryCounts(t *testing.T) {
	passes := func(counts ...int) func(func(*Snapshot) error) error {
		pass := 0
		return func(sink func(*Snapshot) error) error {
			n := counts[pass]
			pass++
			for i := 0; i < n; i++ {
				s := sample()
				s.Header.At = sim.Time(i+1) * sim.Microsecond
				if err := sink(s); err != nil {
					return err
				}
			}
			return nil
		}
	}
	if n, err := Audit(passes(3, 3)); n != 3 || err != nil {
		t.Fatalf("equal passes: %d boundaries, %v", n, err)
	}
	for _, tc := range []struct {
		first, second int
		at            sim.Time
	}{{3, 4, 4 * sim.Microsecond}, {3, 2, 3 * sim.Microsecond}} {
		_, err := Audit(passes(tc.first, tc.second))
		var me *MismatchError
		if !errors.As(err, &me) || me.Field != "boundaries" || me.At != tc.at {
			t.Errorf("passes of %d then %d boundaries: got %v, want a boundaries mismatch at %v",
				tc.first, tc.second, err, tc.at)
		}
	}
	boom := errors.New("run failed")
	if _, err := Audit(func(func(*Snapshot) error) error { return boom }); err != boom {
		t.Errorf("a failing first pass returned %v", err)
	}
}

// TestEncoderDecoderValues pins the encoding against literal bytes: a decoder
// that mirrored an encoder bug would pass a round trip; these do not.
func TestEncoderDecoderValues(t *testing.T) {
	e := NewEncoder()
	e.U8(7)
	e.Bool(true)
	e.Bool(false)
	e.U32(1 << 30)
	e.U64(1 << 60)
	e.I64(-5)
	e.Int(-9000)
	e.Time(3 * sim.Microsecond)
	e.F64(-0.125)
	e.String("hello")
	e.U64s([]uint64{4, 5})
	e.I64s([]int64{-6})
	want := []byte{
		7, 1, 0, // U8, Bool, Bool
		0, 0, 0, 0x40, // U32 1<<30
		0, 0, 0, 0, 0, 0, 0, 0x10, // U64 1<<60
		0xfb, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, // I64 -5
		0xd8, 0xdc, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, // Int -9000
		0xc0, 0xc6, 0x2d, 0, 0, 0, 0, 0, // Time 3us = 3,000,000 ps
		0, 0, 0, 0, 0, 0, 0xc0, 0xbf, // F64 -0.125
		5, 0, 0, 0, 'h', 'e', 'l', 'l', 'o', // String
		2, 0, 0, 0, 4, 0, 0, 0, 0, 0, 0, 0, 5, 0, 0, 0, 0, 0, 0, 0, // U64s
		1, 0, 0, 0, 0xfa, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, // I64s
	}
	if got := e.Bytes(); !bytes.Equal(got, want) {
		t.Errorf("encoded image\n got %x\nwant %x", got, want)
	}
}
