// Package snapshot holds canonical images of the complete simulator state and
// the determinism audit that compares them.
//
// A Snapshot is a capture time plus named opaque sections, one per simulator
// component, each produced by that component's SnapshotTo method through an
// Encoder. Section encodings are canonical: state is walked in a structural
// order (dense fabric-scan order, ascending port order, sorted instrument
// names) rather than allocation order, so the sparse and dense switch
// steppers — bit-identical by construction — produce byte-identical sections
// too.
//
// An image never leaves the process. Goroutine stacks and closure events
// cannot be serialized in Go, so an image could only ever be restored by
// replaying the run from t=0 — which costs what re-running costs (DESIGN §8
// has the measurement). What images are for is Audit: run one configuration
// twice, capture both on the same virtual-time grid, and fail with a typed
// MismatchError naming the first section and instant at which the second run
// was not in the state the first was in.
package snapshot

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/sim"
)

// Header places a snapshot within its run.
type Header struct {
	// At is the virtual time the state image describes: the state after
	// every event with timestamp <= At has fired.
	At sim.Time
	// Seq is the capture ordinal within the run (0-based).
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

// MismatchError is the typed failure for two snapshots that should describe
// the same state and do not. Field names the first divergence: "at" when the
// capture times differ, "sections" or "section order" when the component sets
// do, "section:<name>" when that component's image does; At is the virtual
// time of the snapshot that was expected.
type MismatchError struct {
	Field string
	At    sim.Time
	Want  string
	Got   string
}

// Error implements error.
func (e *MismatchError) Error() string {
	return fmt.Sprintf("snapshot: %s differs at virtual %v: want %s, got %s", e.Field, e.At, e.Want, e.Got)
}

// image is what a comparison keeps of one Snapshot: the capture time and a
// (name, length, hash) triple per section, so the reference run of an audit
// holds a few hundred bytes per boundary instead of the state itself.
type image struct {
	at   sim.Time
	secs []triple
}

type triple struct {
	name string
	n    int
	sum  [sha256.Size]byte
}

func (t triple) String() string { return fmt.Sprintf("%d bytes (sha256 %x)", t.n, t.sum[:8]) }

func imageOf(s *Snapshot) image {
	im := image{at: s.Header.At, secs: make([]triple, len(s.Sections))}
	for i, sec := range s.Sections {
		im.secs[i] = triple{sec.Name, len(sec.Data), sha256.Sum256(sec.Data)}
	}
	return im
}

// diff returns nil when got is the image want is, or a *MismatchError naming
// the first difference.
func (want image) diff(got image) error {
	if want.at != got.at {
		return &MismatchError{Field: "at", At: want.at, Want: want.at.String(), Got: got.at.String()}
	}
	if len(want.secs) != len(got.secs) {
		return &MismatchError{Field: "sections", At: want.at,
			Want: fmt.Sprint(len(want.secs)), Got: fmt.Sprint(len(got.secs))}
	}
	for i, w := range want.secs {
		g := got.secs[i]
		if w.name != g.name {
			return &MismatchError{Field: "section order", At: want.at, Want: w.name, Got: g.name}
		}
		if w != g {
			return &MismatchError{Field: "section:" + w.name, At: want.at, Want: w.String(), Got: g.String()}
		}
	}
	return nil
}

// Audit runs one configuration twice and checks that the second run passes
// through the states the first did. run executes the configuration under the
// managed pump with sink as its Checkpoint.Sink and returns the run's error;
// the first call records an image per capture boundary, the second compares
// at each boundary as it is reached and is aborted by its sink at the first
// difference. Audit returns the number of boundaries the first run captured
// and nil, run's error, or a *MismatchError naming the section and instant
// ("boundaries" when one run captured more often than the other).
func Audit(run func(sink func(*Snapshot) error) error) (boundaries int, err error) {
	var want []image
	if err := run(func(s *Snapshot) error {
		want = append(want, imageOf(s))
		return nil
	}); err != nil {
		return 0, err
	}
	seen := 0
	err = run(func(s *Snapshot) error {
		if seen == len(want) {
			return &MismatchError{Field: "boundaries", At: s.Header.At,
				Want: fmt.Sprint(len(want)), Got: "one more"}
		}
		seen++
		return want[seen-1].diff(imageOf(s))
	})
	if err == nil && seen < len(want) {
		err = &MismatchError{Field: "boundaries", At: want[seen].at,
			Want: fmt.Sprint(len(want)), Got: fmt.Sprint(seen)}
	}
	return len(want), err
}

// ---------------------------------------------------------------------------
// Encoder

// Encoder builds a canonical little-endian byte image. Components implement
// SnapshotTo(*Encoder); the cluster layer collects one encoder per section.
type Encoder struct{ b []byte }

// NewEncoder returns an empty encoder.
func NewEncoder() *Encoder { return &Encoder{} }

// Bytes returns the accumulated image.
func (e *Encoder) Bytes() []byte { return e.b }

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
