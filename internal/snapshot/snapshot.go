// Package snapshot implements versioned, deterministic serialization of the
// complete simulator state: the checkpoint/restore layer that converts the
// repository's bit-reproducibility into runs that can be killed at any moment
// and finish anyway (ROADMAP item 2; the prerequisite for the 256/1024-port
// studies of the paper's §VII open question).
//
// A Snapshot is an identity header (app, net, seed, config digest, canonical
// fault-plan text, capture time) plus named opaque sections, one per
// simulator component, each produced by that component's SnapshotTo method
// through an Encoder. Section encodings are canonical: state is walked in a
// structural order (dense fabric-scan order, ascending port order, sorted
// instrument names) rather than allocation order, so the sparse and dense
// switch steppers — bit-identical by construction — produce byte-identical
// sections too.
//
// Restore is replay-verify: goroutine stacks and closure events cannot be
// serialized in Go, so a resumed run deterministically replays from t=0 to
// the capture time, re-captures every section, and requires each to be
// byte-identical to the snapshot before continuing. The snapshot is therefore
// both the integrity proof (any divergence fails loudly with a typed
// MismatchError naming the first differing section) and the contract that the
// continued run equals the uninterrupted one.
//
// The file container is little-endian with a magic string, a format version,
// a CRC32 per section, and a trailing whole-file CRC32. Corrupt or truncated
// files fail with a typed *FormatError carrying what went wrong and where;
// identity mismatches fail with a typed *MismatchError. There are no silent
// garbage restores.
package snapshot

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"

	"repro/internal/sim"
)

// Magic identifies a snapshot file. The trailing byte is the container
// format generation; bumping Version covers header/section layout changes.
const Magic = "DVSNAP\x00\x01"

// Version is the current snapshot format version. Decode refuses any other
// with a *FormatError of Kind "version", so an image from an older build is
// turned away by name before replay, instead of failing replay verification
// on some section digest.
//
//	1: the original layout.
//	2: the "dvswitch" section of a fast-model run carries its delivery trains
//	   (pending deliveries are no longer kernel events); it also draws the
//	   line under the event sequence numbers that moved while 1 was current.
const Version = 2

// Header identifies the run a snapshot belongs to. Every field participates
// in resume validation: restoring a snapshot into a run whose identity
// differs fails with a *MismatchError instead of replaying garbage.
type Header struct {
	// App is the workload name (registry key) the snapshot was taken from.
	App string
	// Net names the backend under test ("DV", "IB", ...).
	Net string
	// Seed is the run's RNG seed.
	Seed uint64
	// Nodes is the cluster size.
	Nodes int
	// ConfigDigest fingerprints every run parameter that shapes state
	// evolution (stacks, switch geometry, cycle time, calibrated params).
	ConfigDigest uint64
	// Faults is the canonical fault-plan text (faultplan.Plan.String);
	// empty when the run injects no faults.
	Faults string
	// At is the virtual time the state image describes: the state after
	// every event with timestamp <= At has fired.
	At sim.Time
	// Every is the checkpoint interval the producing run used; resume
	// continues on the same boundary grid.
	Every sim.Time
	// Seq is the checkpoint ordinal within the run (0-based).
	Seq uint64
}

// Section is one component's canonical state image.
type Section struct {
	Name string
	Data []byte
}

// Snapshot is one complete simulator state capture.
type Snapshot struct {
	Header   Header
	Sections []Section
}

// Add appends a named section.
func (s *Snapshot) Add(name string, data []byte) {
	s.Sections = append(s.Sections, Section{Name: name, Data: data})
}

// Section returns the named section's data and whether it exists.
func (s *Snapshot) Section(name string) ([]byte, bool) {
	for _, sec := range s.Sections {
		if sec.Name == name {
			return sec.Data, true
		}
	}
	return nil, false
}

// FormatError is the typed failure for unreadable snapshot files. Kind is one
// of "magic", "version", "truncated", or "corrupt"; Detail carries the
// mismatching values or the section at fault.
type FormatError struct {
	Kind   string
	Detail string
}

// Error implements error.
func (e *FormatError) Error() string {
	return fmt.Sprintf("snapshot: bad file (%s): %s", e.Kind, e.Detail)
}

// MismatchError is the typed failure for a snapshot that decodes cleanly but
// does not belong to (or no longer matches) the run restoring it. Field names
// the first divergence: an identity field ("app", "seed", "nodes", "config",
// "faults", "net", "at") or "section:<name>" when the replayed state image
// diverges from the captured one.
type MismatchError struct {
	Field string
	Want  string
	Got   string
}

// Error implements error.
func (e *MismatchError) Error() string {
	return fmt.Sprintf("snapshot: %s mismatch: snapshot has %s, run has %s", e.Field, e.Want, e.Got)
}

// Diff compares two snapshots and returns nil when they are identical, or a
// *MismatchError naming the first differing header field or section. It is
// the verification step of replay-based restore: want is the stored
// snapshot, got is the re-capture at the same virtual time.
func Diff(want, got *Snapshot) error {
	w, g := want.Header, got.Header
	switch {
	case w.App != g.App:
		return &MismatchError{Field: "app", Want: w.App, Got: g.App}
	case w.Net != g.Net:
		return &MismatchError{Field: "net", Want: w.Net, Got: g.Net}
	case w.Seed != g.Seed:
		return &MismatchError{Field: "seed", Want: fmt.Sprint(w.Seed), Got: fmt.Sprint(g.Seed)}
	case w.Nodes != g.Nodes:
		return &MismatchError{Field: "nodes", Want: fmt.Sprint(w.Nodes), Got: fmt.Sprint(g.Nodes)}
	case w.ConfigDigest != g.ConfigDigest:
		return &MismatchError{Field: "config", Want: fmt.Sprintf("%#x", w.ConfigDigest), Got: fmt.Sprintf("%#x", g.ConfigDigest)}
	case w.Faults != g.Faults:
		return &MismatchError{Field: "faults", Want: w.Faults, Got: g.Faults}
	case w.At != g.At:
		return &MismatchError{Field: "at", Want: w.At.String(), Got: g.At.String()}
	}
	if len(want.Sections) != len(got.Sections) {
		return &MismatchError{Field: "sections",
			Want: fmt.Sprint(len(want.Sections)), Got: fmt.Sprint(len(got.Sections))}
	}
	for i, ws := range want.Sections {
		gs := got.Sections[i]
		if ws.Name != gs.Name {
			return &MismatchError{Field: "section order", Want: ws.Name, Got: gs.Name}
		}
		if string(ws.Data) != string(gs.Data) {
			return &MismatchError{Field: "section:" + ws.Name,
				Want: fmt.Sprintf("%d bytes (crc %#x)", len(ws.Data), crc32.ChecksumIEEE(ws.Data)),
				Got:  fmt.Sprintf("%d bytes (crc %#x)", len(gs.Data), crc32.ChecksumIEEE(gs.Data))}
		}
	}
	return nil
}

// ---------------------------------------------------------------------------
// Encoder / Decoder

// Encoder builds a canonical little-endian byte image. Components implement
// SnapshotTo(*Encoder); the cluster layer collects one encoder per section.
type Encoder struct{ b []byte }

// NewEncoder returns an empty encoder.
func NewEncoder() *Encoder { return &Encoder{} }

// Bytes returns the accumulated image.
func (e *Encoder) Bytes() []byte { return e.b }

// Len returns the number of bytes written so far.
func (e *Encoder) Len() int { return len(e.b) }

// U8 appends one byte.
func (e *Encoder) U8(v uint8) { e.b = append(e.b, v) }

// Bool appends a boolean as one byte.
func (e *Encoder) Bool(v bool) {
	if v {
		e.U8(1)
	} else {
		e.U8(0)
	}
}

// U32 appends a little-endian uint32.
func (e *Encoder) U32(v uint32) { e.b = binary.LittleEndian.AppendUint32(e.b, v) }

// U64 appends a little-endian uint64.
func (e *Encoder) U64(v uint64) { e.b = binary.LittleEndian.AppendUint64(e.b, v) }

// I64 appends a little-endian int64.
func (e *Encoder) I64(v int64) { e.U64(uint64(v)) }

// Int appends an int as int64.
func (e *Encoder) Int(v int) { e.I64(int64(v)) }

// Time appends a virtual time.
func (e *Encoder) Time(t sim.Time) { e.I64(int64(t)) }

// F64 appends a float64 by its IEEE-754 bits (bit-exact round trip).
func (e *Encoder) F64(v float64) { e.U64(math.Float64bits(v)) }

// String appends a length-prefixed string.
func (e *Encoder) String(s string) {
	e.U32(uint32(len(s)))
	e.b = append(e.b, s...)
}

// Bytes64 appends a length-prefixed byte slice.
func (e *Encoder) Bytes64(p []byte) {
	e.U32(uint32(len(p)))
	e.b = append(e.b, p...)
}

// U64s appends a length-prefixed []uint64.
func (e *Encoder) U64s(vs []uint64) {
	e.U32(uint32(len(vs)))
	for _, v := range vs {
		e.U64(v)
	}
}

// I64s appends a length-prefixed []int64.
func (e *Encoder) I64s(vs []int64) {
	e.U32(uint32(len(vs)))
	for _, v := range vs {
		e.I64(v)
	}
}

// Decoder reads back what an Encoder wrote. It is used by the file container
// and by tests; component sections are verified by byte comparison, never
// field-decoded, so components need no decode methods.
type Decoder struct {
	b   []byte
	off int
	err error
}

// NewDecoder wraps a byte image.
func NewDecoder(b []byte) *Decoder { return &Decoder{b: b} }

// Err returns the first decode error (always a *FormatError), or nil.
func (d *Decoder) Err() error { return d.err }

// Rem returns the number of unread bytes.
func (d *Decoder) Rem() int { return len(d.b) - d.off }

func (d *Decoder) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if d.off+n > len(d.b) {
		d.err = &FormatError{Kind: "truncated",
			Detail: fmt.Sprintf("need %d bytes at offset %d, file has %d", n, d.off, len(d.b))}
		return nil
	}
	p := d.b[d.off : d.off+n]
	d.off += n
	return p
}

// U8 reads one byte.
func (d *Decoder) U8() uint8 {
	p := d.take(1)
	if p == nil {
		return 0
	}
	return p[0]
}

// Bool reads a one-byte boolean.
func (d *Decoder) Bool() bool { return d.U8() != 0 }

// U32 reads a little-endian uint32.
func (d *Decoder) U32() uint32 {
	p := d.take(4)
	if p == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(p)
}

// U64 reads a little-endian uint64.
func (d *Decoder) U64() uint64 {
	p := d.take(8)
	if p == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(p)
}

// I64 reads a little-endian int64.
func (d *Decoder) I64() int64 { return int64(d.U64()) }

// Int reads an int64-encoded int.
func (d *Decoder) Int() int { return int(d.I64()) }

// Time reads a virtual time.
func (d *Decoder) Time() sim.Time { return sim.Time(d.I64()) }

// F64 reads an IEEE-754 float64.
func (d *Decoder) F64() float64 { return math.Float64frombits(d.U64()) }

// String reads a length-prefixed string.
func (d *Decoder) String() string {
	n := d.U32()
	if d.err != nil || int(n) > d.Rem() {
		if d.err == nil {
			d.err = &FormatError{Kind: "truncated",
				Detail: fmt.Sprintf("string of %d bytes at offset %d exceeds file", n, d.off)}
		}
		return ""
	}
	return string(d.take(int(n)))
}

// Bytes64 reads a length-prefixed byte slice.
func (d *Decoder) Bytes64() []byte {
	n := d.U32()
	if d.err != nil || int(n) > d.Rem() {
		if d.err == nil {
			d.err = &FormatError{Kind: "truncated",
				Detail: fmt.Sprintf("blob of %d bytes at offset %d exceeds file", n, d.off)}
		}
		return nil
	}
	return d.take(int(n))
}

// ---------------------------------------------------------------------------
// File container

// Encode serialises the snapshot into its file representation: magic,
// version, header, per-section CRC32-protected payloads, and a trailing
// whole-file CRC32.
func Encode(s *Snapshot) []byte {
	e := NewEncoder()
	e.b = append(e.b, Magic...)
	e.U32(Version)
	h := s.Header
	e.String(h.App)
	e.String(h.Net)
	e.U64(h.Seed)
	e.Int(h.Nodes)
	e.U64(h.ConfigDigest)
	e.String(h.Faults)
	e.Time(h.At)
	e.Time(h.Every)
	e.U64(h.Seq)
	e.U32(uint32(len(s.Sections)))
	for _, sec := range s.Sections {
		e.String(sec.Name)
		e.U32(crc32.ChecksumIEEE(sec.Data))
		e.Bytes64(sec.Data)
	}
	e.U32(crc32.ChecksumIEEE(e.b))
	return e.b
}

// Decode parses a snapshot file image, verifying magic, version, every
// section CRC, and the whole-file CRC. Failures are typed *FormatError
// values; a clean decode never returns garbage.
func Decode(b []byte) (*Snapshot, error) {
	if len(b) < len(Magic)+8 {
		return nil, &FormatError{Kind: "truncated",
			Detail: fmt.Sprintf("%d bytes is smaller than any snapshot", len(b))}
	}
	if string(b[:len(Magic)]) != Magic {
		return nil, &FormatError{Kind: "magic",
			Detail: fmt.Sprintf("got %q, want %q", b[:len(Magic)], Magic)}
	}
	// Structure first, whole-file CRC last: a shortened file fails a read
	// past its end and reports "truncated"; a damaged byte fails a CRC and
	// reports "corrupt".
	body, tail := b[:len(b)-4], b[len(b)-4:]
	d := NewDecoder(body)
	d.take(len(Magic))
	if v := d.U32(); v != Version {
		return nil, &FormatError{Kind: "version", Detail: fmt.Sprintf("got %d, want %d", v, Version)}
	}
	s := &Snapshot{}
	h := &s.Header
	h.App = d.String()
	h.Net = d.String()
	h.Seed = d.U64()
	h.Nodes = d.Int()
	h.ConfigDigest = d.U64()
	h.Faults = d.String()
	h.At = d.Time()
	h.Every = d.Time()
	h.Seq = d.U64()
	n := d.U32()
	for i := uint32(0); i < n && d.err == nil; i++ {
		name := d.String()
		crc := d.U32()
		data := d.Bytes64()
		if d.err != nil {
			break
		}
		if crc32.ChecksumIEEE(data) != crc {
			return nil, &FormatError{Kind: "corrupt",
				Detail: fmt.Sprintf("section %q CRC32 mismatch", name)}
		}
		// Copy: data aliases the caller's buffer.
		s.Add(name, append([]byte(nil), data...))
	}
	if d.err != nil {
		return nil, d.err
	}
	if d.Rem() != 0 {
		return nil, &FormatError{Kind: "corrupt",
			Detail: fmt.Sprintf("%d trailing bytes after last section", d.Rem())}
	}
	if crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(tail) {
		return nil, &FormatError{Kind: "corrupt", Detail: "whole-file CRC32 mismatch"}
	}
	return s, nil
}

// WriteFile atomically writes the snapshot to path (temp file + rename), so
// a crash mid-write never leaves a half-written checkpoint where a resume
// would look for one.
func WriteFile(path string, s *Snapshot) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".dvsnap-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	if _, err := tmp.Write(Encode(s)); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}

// ReadFile reads and decodes a snapshot file.
func ReadFile(path string) (*Snapshot, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return Decode(b)
}
