package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
)

// A stdlib-only reader for the gzipped protobuf that runtime/pprof writes
// (github.com/google/pprof/proto/profile.proto). It decodes just what the
// layer split needs: each sample's first value and its call stack as
// function names, innermost frame first.

// stackSample is one profile sample: count is its first value (CPU samples
// for a CPU profile), stack the function names from the leaf outwards,
// inlined frames expanded.
type stackSample struct {
	count int64
	stack []string
}

var errTruncated = errors.New("pprof: truncated message")

// pbuf walks one protobuf message.
type pbuf struct{ b []byte }

func (p *pbuf) varint() (uint64, error) {
	var v uint64
	for shift := uint(0); shift < 64; shift += 7 {
		if len(p.b) == 0 {
			return 0, errTruncated
		}
		c := p.b[0]
		p.b = p.b[1:]
		v |= uint64(c&0x7f) << shift
		if c < 0x80 {
			return v, nil
		}
	}
	return 0, errors.New("pprof: varint overflows 64 bits")
}

// next returns the next field: its number, and either its varint value
// (wire type 0) or its bytes (wire type 2). Fixed-width fields are skipped
// over and returned as bytes.
func (p *pbuf) next() (field int, v uint64, data []byte, err error) {
	key, err := p.varint()
	if err != nil {
		return 0, 0, nil, err
	}
	field = int(key >> 3)
	var n uint64
	switch key & 7 {
	case 0:
		v, err = p.varint()
		return field, v, nil, err
	case 1:
		n = 8
	case 2:
		if n, err = p.varint(); err != nil {
			return 0, 0, nil, err
		}
	case 5:
		n = 4
	default:
		return 0, 0, nil, fmt.Errorf("pprof: unsupported wire type %d", key&7)
	}
	if n > uint64(len(p.b)) {
		return 0, 0, nil, errTruncated
	}
	data, p.b = p.b[:n], p.b[n:]
	return field, 0, data, nil
}

// uints appends a repeated integer field, which arrives either packed
// (data != nil) or one value at a time.
func uints(dst []uint64, v uint64, data []byte) ([]uint64, error) {
	if data == nil {
		return append(dst, v), nil
	}
	p := pbuf{data}
	for len(p.b) > 0 {
		x, err := p.varint()
		if err != nil {
			return nil, err
		}
		dst = append(dst, x)
	}
	return dst, nil
}

// decodeProfile reads a gzipped pprof profile into its samples.
func decodeProfile(gz []byte) ([]stackSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("pprof: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("pprof: %w", err)
	}

	type rawSample struct {
		locs  []uint64
		count int64
	}
	var (
		samples  []rawSample
		locLines = map[uint64][]uint64{} // location id -> function ids, innermost first
		funcName = map[uint64]uint64{}   // function id -> string-table index
		strs     []string
	)
	p := pbuf{raw}
	for len(p.b) > 0 {
		field, _, data, err := p.next()
		if err != nil {
			return nil, err
		}
		switch field {
		case 2: // Sample
			var s rawSample
			var vals []uint64
			m := pbuf{data}
			for len(m.b) > 0 {
				f, v, d, err := m.next()
				if err != nil {
					return nil, err
				}
				switch f {
				case 1:
					if s.locs, err = uints(s.locs, v, d); err != nil {
						return nil, err
					}
				case 2:
					if vals, err = uints(vals, v, d); err != nil {
						return nil, err
					}
				}
			}
			if len(vals) > 0 {
				s.count = int64(vals[0])
			}
			samples = append(samples, s)
		case 4: // Location
			var id uint64
			var fns []uint64
			m := pbuf{data}
			for len(m.b) > 0 {
				f, v, d, err := m.next()
				if err != nil {
					return nil, err
				}
				switch f {
				case 1:
					id = v
				case 4: // Line
					l := pbuf{d}
					for len(l.b) > 0 {
						lf, lv, _, err := l.next()
						if err != nil {
							return nil, err
						}
						if lf == 1 {
							fns = append(fns, lv)
						}
					}
				}
			}
			locLines[id] = fns
		case 5: // Function
			var id, name uint64
			m := pbuf{data}
			for len(m.b) > 0 {
				f, v, _, err := m.next()
				if err != nil {
					return nil, err
				}
				switch f {
				case 1:
					id = v
				case 2:
					name = v
				}
			}
			funcName[id] = name
		case 6: // string_table
			strs = append(strs, string(data))
		}
	}

	out := make([]stackSample, 0, len(samples))
	for _, s := range samples {
		ss := stackSample{count: s.count}
		for _, loc := range s.locs {
			fns, ok := locLines[loc]
			if !ok {
				return nil, fmt.Errorf("pprof: sample names unknown location %d", loc)
			}
			for _, fn := range fns {
				idx, ok := funcName[fn]
				if !ok || idx >= uint64(len(strs)) {
					return nil, fmt.Errorf("pprof: location %d names unknown function %d", loc, fn)
				}
				ss.stack = append(ss.stack, strs[idx])
			}
		}
		out = append(out, ss)
	}
	return out, nil
}
