package snapshot

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/sim"
)

func sample() *Snapshot {
	s := &Snapshot{Header: Header{
		App:          "gups",
		Net:          "Data Vortex",
		Seed:         42,
		Nodes:        4,
		ConfigDigest: 0xdeadbeefcafe,
		Faults:       "seed=42 drop=1e-3",
		At:           20 * sim.Microsecond,
		Every:        5 * sim.Microsecond,
		Seq:          3,
	}}
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

func TestEncodeDecodeRoundTrip(t *testing.T) {
	want := sample()
	got, err := Decode(Encode(want))
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if got.Header != want.Header {
		t.Fatalf("header round trip: got %+v, want %+v", got.Header, want.Header)
	}
	if len(got.Sections) != len(want.Sections) {
		t.Fatalf("got %d sections, want %d", len(got.Sections), len(want.Sections))
	}
	for i, sec := range want.Sections {
		if got.Sections[i].Name != sec.Name || string(got.Sections[i].Data) != string(sec.Data) {
			t.Errorf("section %d (%s) differs after round trip", i, sec.Name)
		}
	}
	if err := Diff(want, got); err != nil {
		t.Fatalf("Diff of a round trip: %v", err)
	}
}

func TestWriteReadFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "a.ckpt")
	want := sample()
	if err := WriteFile(path, want); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	got, err := ReadFile(path)
	if err != nil {
		t.Fatalf("ReadFile: %v", err)
	}
	if err := Diff(want, got); err != nil {
		t.Fatalf("Diff after file round trip: %v", err)
	}
}

// TestDecodeTruncated cuts the encoded file at every length and requires a
// typed *FormatError each time — never a panic, never a garbage snapshot.
func TestDecodeTruncated(t *testing.T) {
	full := Encode(sample())
	for cut := 0; cut < len(full); cut++ {
		_, err := Decode(full[:cut])
		var fe *FormatError
		if !errors.As(err, &fe) {
			t.Fatalf("cut at %d/%d bytes: got %v, want *FormatError", cut, len(full), err)
		}
		switch fe.Kind {
		case "truncated", "magic", "version", "corrupt":
		default:
			t.Fatalf("cut at %d: unexpected kind %q", cut, fe.Kind)
		}
	}
	// Representative kinds at representative cuts.
	if _, err := Decode(full[:3]); err.(*FormatError).Kind != "truncated" {
		t.Errorf("tiny file: got kind %q, want truncated", err.(*FormatError).Kind)
	}
	if _, err := Decode(full[:len(full)/2]); err.(*FormatError).Kind != "truncated" {
		t.Errorf("half file: got kind %q, want truncated", err.(*FormatError).Kind)
	}
}

// TestDecodeBitFlips flips one bit in every byte position and requires the
// decoder to reject the file with a typed *FormatError: between the magic
// check, the version check, per-section CRCs, and the whole-file CRC, no
// single-bit damage can decode silently.
func TestDecodeBitFlips(t *testing.T) {
	full := Encode(sample())
	for i := 0; i < len(full); i++ {
		mut := append([]byte(nil), full...)
		mut[i] ^= 0x10
		_, err := Decode(mut)
		var fe *FormatError
		if !errors.As(err, &fe) {
			t.Fatalf("flip at byte %d: got %v, want *FormatError", i, err)
		}
	}
	// Damage in the magic reports "magic", in the version field "version".
	mut := append([]byte(nil), full...)
	mut[0] ^= 0xff
	if _, err := Decode(mut); err.(*FormatError).Kind != "magic" {
		t.Errorf("magic flip: got kind %q", err.(*FormatError).Kind)
	}
	mut = append([]byte(nil), full...)
	mut[len(Magic)] ^= 0xff // low byte of the version u32
	if _, err := Decode(mut); err.(*FormatError).Kind != "version" {
		t.Errorf("version flip: got kind %q", err.(*FormatError).Kind)
	}
}

// reversion returns a well-formed file image of sample() as a build whose
// format version was v would have written it: same layout, the version word
// replaced and the whole-file CRC recomputed, so nothing but the version
// check can object.
func reversion(v uint32) []byte {
	b := Encode(sample())
	binary.LittleEndian.PutUint32(b[len(Magic):], v)
	body := b[:len(b)-4]
	binary.LittleEndian.PutUint32(b[len(b)-4:], crc32.ChecksumIEEE(body))
	return b
}

// TestOldVersionsFailByName: an image written under another format version
// is refused with a FormatError naming the version — not decoded and left to
// fail replay verification on a section digest (a MismatchError that would
// blame the run), and never a panic.
func TestOldVersionsFailByName(t *testing.T) {
	for _, tc := range []struct {
		name    string
		version uint32
		ok      bool
	}{
		{"version 1 (before delivery trains)", 1, false},
		{"version 0", 0, false},
		{"a future version", Version + 1, false},
		{"the current version", Version, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "old.ckpt")
			if err := os.WriteFile(path, reversion(tc.version), 0o644); err != nil {
				t.Fatal(err)
			}
			s, err := ReadFile(path)
			if tc.ok {
				if err != nil {
					t.Fatalf("ReadFile: %v", err)
				}
				if err := Diff(sample(), s); err != nil {
					t.Fatalf("Diff: %v", err)
				}
				return
			}
			var fe *FormatError
			if !errors.As(err, &fe) || fe.Kind != "version" {
				t.Fatalf("got (%v, %v), want *FormatError{Kind: \"version\"}", s, err)
			}
			var me *MismatchError
			if errors.As(err, &me) {
				t.Fatalf("an old image was reported as a mismatch: %v", err)
			}
			if want := fmt.Sprintf("got %d, want %d", tc.version, Version); fe.Detail != want {
				t.Errorf("detail %q, want %q", fe.Detail, want)
			}
		})
	}
}

func TestDiffMismatches(t *testing.T) {
	mismatch := func(mut func(*Snapshot)) *MismatchError {
		t.Helper()
		a, b := sample(), sample()
		mut(b)
		err := Diff(a, b)
		var me *MismatchError
		if !errors.As(err, &me) {
			t.Fatalf("got %v, want *MismatchError", err)
		}
		return me
	}
	if me := mismatch(func(s *Snapshot) { s.Header.App = "bfs" }); me.Field != "app" {
		t.Errorf("app mutation reported field %q", me.Field)
	}
	if me := mismatch(func(s *Snapshot) { s.Header.Seed = 43 }); me.Field != "seed" {
		t.Errorf("seed mutation reported field %q", me.Field)
	}
	if me := mismatch(func(s *Snapshot) { s.Header.Faults = "" }); me.Field != "faults" {
		t.Errorf("faults mutation reported field %q", me.Field)
	}
	if me := mismatch(func(s *Snapshot) { s.Sections[1].Data[0]++ }); me.Field != "section:rng" {
		t.Errorf("section mutation reported field %q", me.Field)
	}
	if me := mismatch(func(s *Snapshot) { s.Sections = s.Sections[:2] }); me.Field != "sections" {
		t.Errorf("section-count mutation reported field %q", me.Field)
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
	e.Bytes64([]byte{1, 2, 3})
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
	if got := d.Bytes64(); !reflect.DeepEqual(got, []byte{1, 2, 3}) {
		t.Errorf("Bytes64 = %v", got)
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
