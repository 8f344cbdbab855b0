package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
)

// A minimal reader for the gzipped profile.proto that runtime/pprof writes,
// so the CPU profile of the benchmark's own process can be bucketed by layer
// with the standard library alone. It decodes only what the bucketing needs:
// samples (stack of location IDs + values), locations (their inlined lines,
// innermost first), functions (name, file) and the string table.

// frame is one function on a sampled stack.
type frame struct {
	Func string // fully qualified, e.g. apiary/internal/noc.(*Network).trySend
	File string
}

// stackSample is one distinct stack of the profile, frames leaf first, with
// how many times it was sampled and the CPU nanoseconds that stands for
// (runtime/pprof's two values per sample).
type stackSample struct {
	Frames []frame
	Count  int64
	Nanos  int64
}

// protoBuf walks one length-delimited protobuf message.
type protoBuf struct {
	b   []byte
	err error
}

func (p *protoBuf) varint() uint64 {
	var v uint64
	for shift := uint(0); shift < 64; shift += 7 {
		if len(p.b) == 0 {
			p.err = io.ErrUnexpectedEOF
			return 0
		}
		c := p.b[0]
		p.b = p.b[1:]
		v |= uint64(c&0x7f) << shift
		if c < 0x80 {
			return v
		}
	}
	p.err = errors.New("varint overflows 64 bits")
	return 0
}

// next returns the next field: its number, and either its varint value or
// its bytes (wire type 2). Fixed-width fields are skipped over.
func (p *protoBuf) next() (field int, v uint64, data []byte, ok bool) {
	for len(p.b) > 0 && p.err == nil {
		key := p.varint()
		field = int(key >> 3)
		switch key & 7 {
		case 0:
			return field, p.varint(), nil, p.err == nil
		case 2:
			n := p.varint()
			if n > uint64(len(p.b)) {
				p.err = io.ErrUnexpectedEOF
				return 0, 0, nil, false
			}
			data, p.b = p.b[:n], p.b[n:]
			return field, 0, data, p.err == nil
		case 1:
			p.skip(8)
		case 5:
			p.skip(4)
		default:
			p.err = fmt.Errorf("unsupported wire type %d", key&7)
		}
	}
	return 0, 0, nil, false
}

func (p *protoBuf) skip(n int) {
	if n > len(p.b) {
		p.err = io.ErrUnexpectedEOF
		return
	}
	p.b = p.b[n:]
}

// repeatedVarint appends a repeated integer field that may arrive packed
// (data != nil) or one value at a time.
func repeatedVarint(dst []uint64, v uint64, data []byte) ([]uint64, error) {
	if data == nil {
		return append(dst, v), nil
	}
	p := protoBuf{b: data}
	for len(p.b) > 0 && p.err == nil {
		dst = append(dst, p.varint())
	}
	return dst, p.err
}

// parseProfile decodes a gzipped CPU profile into stack samples.
func parseProfile(gz []byte) ([]stackSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}

	type rawSample struct {
		locs, vals []uint64
	}
	type rawFunc struct{ name, file uint64 }
	var (
		samples []rawSample
		locs    = map[uint64][]uint64{} // location ID -> function IDs, innermost first
		funcs   = map[uint64]rawFunc{}
		strs    []string
	)
	top := protoBuf{b: raw}
	for {
		field, _, data, ok := top.next()
		if !ok {
			break
		}
		m := protoBuf{b: data}
		switch field {
		case 2: // Sample
			var s rawSample
			for {
				f, v, d, ok := m.next()
				if !ok {
					break
				}
				switch f {
				case 1:
					s.locs, m.err = repeatedVarint(s.locs, v, d)
				case 2:
					s.vals, m.err = repeatedVarint(s.vals, v, d)
				}
			}
			samples = append(samples, s)
		case 4: // Location
			var id uint64
			var lines []uint64
			for {
				f, v, d, ok := m.next()
				if !ok {
					break
				}
				switch f {
				case 1:
					id = v
				case 4: // Line
					l := protoBuf{b: d}
					for {
						lf, lv, _, ok := l.next()
						if !ok {
							break
						}
						if lf == 1 {
							lines = append(lines, lv)
						}
					}
					if l.err != nil {
						m.err = l.err
					}
				}
			}
			locs[id] = lines
		case 5: // Function
			var id uint64
			var fn rawFunc
			for {
				f, v, _, ok := m.next()
				if !ok {
					break
				}
				switch f {
				case 1:
					id = v
				case 2:
					fn.name = v
				case 4:
					fn.file = v
				}
			}
			funcs[id] = fn
		case 6: // string_table
			strs = append(strs, string(data))
		}
		if m.err != nil {
			return nil, fmt.Errorf("profile: field %d: %w", field, m.err)
		}
	}
	if top.err != nil {
		return nil, fmt.Errorf("profile: %w", top.err)
	}

	str := func(i uint64) string {
		if i < uint64(len(strs)) {
			return strs[i]
		}
		return ""
	}
	out := make([]stackSample, 0, len(samples))
	for _, s := range samples {
		ss := stackSample{}
		if len(s.vals) == 2 {
			ss.Count, ss.Nanos = int64(s.vals[0]), int64(s.vals[1])
		}
		for _, id := range s.locs {
			for _, fnID := range locs[id] {
				fn := funcs[fnID]
				ss.Frames = append(ss.Frames, frame{Func: str(fn.name), File: str(fn.file)})
			}
		}
		out = append(out, ss)
	}
	return out, nil
}
