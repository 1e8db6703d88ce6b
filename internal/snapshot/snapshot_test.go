package snapshot

import (
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

func TestDiffMismatches(t *testing.T) {
	if err := Diff(sample(), sample()); err != nil {
		t.Fatalf("Diff of equal snapshots: %v", err)
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
		if err := Diff(sample(), b); !errors.As(err, &me) {
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
	d := NewDecoder(e.Bytes())
	if got := d.U8(); got != 7 {
		t.Errorf("U8 = %d", got)
	}
	if !d.Bool() || d.Bool() {
		t.Error("Bool round trip failed")
	}
	if got := d.U32(); got != 1<<30 {
		t.Errorf("U32 = %d", got)
	}
	if got := d.U64(); got != 1<<60 {
		t.Errorf("U64 = %d", got)
	}
	if got := d.I64(); got != -5 {
		t.Errorf("I64 = %d", got)
	}
	if got := d.Int(); got != -9000 {
		t.Errorf("Int = %d", got)
	}
	if got := d.Time(); got != 3*sim.Microsecond {
		t.Errorf("Time = %v", got)
	}
	if got := d.F64(); got != -0.125 {
		t.Errorf("F64 = %v", got)
	}
	if got := d.String(); got != "hello" {
		t.Errorf("String = %q", got)
	}
	if got := d.U32(); got != 2 { // U64s length prefix
		t.Errorf("U64s len = %d", got)
	}
	if d.U64() != 4 || d.U64() != 5 {
		t.Error("U64s payload wrong")
	}
	if got := d.U32(); got != 1 || d.I64() != -6 {
		t.Errorf("I64s round trip wrong (len %d)", got)
	}
	if d.Err() != nil || d.Rem() != 0 {
		t.Fatalf("decoder end state: err=%v rem=%d", d.Err(), d.Rem())
	}
}
