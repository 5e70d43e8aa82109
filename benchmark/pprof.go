package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// A small decoder for the pprof wire format (gzip-compressed
// profile.proto), reading only what folding samples onto their leaf
// function needs: samples, locations, functions and the string table.
// The module has no dependencies, so github.com/google/pprof is not an
// option, and shelling out to `go tool pprof` would need the toolchain at
// run time.

// protoBuf walks one protobuf message.
type protoBuf struct {
	b []byte
}

var errTruncated = errors.New("pprof: truncated message")

func (p *protoBuf) varint() (uint64, error) {
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

// next returns the next field: its number, its varint value (wire type 0)
// or its bytes (wire type 2). Fixed-width fields are skipped over.
func (p *protoBuf) next() (field int, val uint64, data []byte, err error) {
	key, err := p.varint()
	if err != nil {
		return 0, 0, nil, err
	}
	field = int(key >> 3)
	switch key & 7 {
	case 0:
		val, err = p.varint()
	case 1:
		err = p.skip(8)
	case 2:
		var n uint64
		if n, err = p.varint(); err == nil {
			if n > uint64(len(p.b)) {
				return 0, 0, nil, errTruncated
			}
			data = p.b[:n]
			p.b = p.b[n:]
		}
	case 5:
		err = p.skip(4)
	default:
		err = fmt.Errorf("pprof: unsupported wire type %d", key&7)
	}
	return field, val, data, err
}

func (p *protoBuf) skip(n int) error {
	if n > len(p.b) {
		return errTruncated
	}
	p.b = p.b[n:]
	return nil
}

// repeatedVarint appends one occurrence of a repeated integer field,
// packed (data) or not (val).
func repeatedVarint(dst []uint64, val uint64, data []byte) ([]uint64, error) {
	if data == nil {
		return append(dst, val), nil
	}
	p := protoBuf{data}
	for len(p.b) > 0 {
		v, err := p.varint()
		if err != nil {
			return nil, err
		}
		dst = append(dst, v)
	}
	return dst, nil
}

// leafSamples decodes a CPU profile and returns, per leaf function name,
// the number of samples whose innermost frame it was.
func leafSamples(gz []byte) (map[string]int64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("pprof: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("pprof: %w", err)
	}

	type sample struct {
		leaf  uint64 // location id of the innermost frame
		count int64
	}
	var samples []sample
	locFunc := map[uint64]uint64{}  // location id -> function id of its innermost line
	funcName := map[uint64]uint64{} // function id -> string-table index
	var strs []string

	p := protoBuf{raw}
	for len(p.b) > 0 {
		field, _, data, err := p.next()
		if err != nil {
			return nil, err
		}
		switch field {
		case 2: // Sample
			var locs, vals []uint64
			m := protoBuf{data}
			for len(m.b) > 0 {
				f, v, d, err := m.next()
				if err != nil {
					return nil, err
				}
				switch f {
				case 1:
					locs, err = repeatedVarint(locs, v, d)
				case 2:
					vals, err = repeatedVarint(vals, v, d)
				}
				if err != nil {
					return nil, err
				}
			}
			if len(locs) > 0 && len(vals) > 0 {
				samples = append(samples, sample{leaf: locs[0], count: int64(vals[0])})
			}
		case 4: // Location
			var id, fn uint64
			haveLine := false
			m := protoBuf{data}
			for len(m.b) > 0 {
				f, v, d, err := m.next()
				if err != nil {
					return nil, err
				}
				switch {
				case f == 1:
					id = v
				case f == 4 && !haveLine:
					// The first Line is the innermost inlined function.
					haveLine = true
					l := protoBuf{d}
					for len(l.b) > 0 {
						lf, lv, _, err := l.next()
						if err != nil {
							return nil, err
						}
						if lf == 1 {
							fn = lv
						}
					}
				}
			}
			locFunc[id] = fn
		case 5: // Function
			var id, name uint64
			m := protoBuf{data}
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

	out := map[string]int64{}
	for _, s := range samples {
		idx := funcName[locFunc[s.leaf]]
		name := "?"
		if idx < uint64(len(strs)) && strs[idx] != "" {
			name = strs[idx]
		}
		out[name] += s.count
	}
	return out, nil
}

// modulePath is the repository's module, as it prefixes symbol names.
const modulePath = "lunasolar/"

// layerOf maps a Go symbol name (pkg/path.Func, pkg.(*T).Method) to the
// stack layer its package belongs to. Everything outside the module — the
// Go runtime (mallocgc, memmove, the collector) and the standard library —
// is runtime_go; the benchmark's own package is bench.
func layerOf(symbol string) string {
	pkg := symbol
	slash := strings.LastIndexByte(pkg, '/')
	if dot := strings.IndexByte(pkg[slash+1:], '.'); dot >= 0 {
		pkg = pkg[:slash+1+dot]
	}
	if pkg == "main" || pkg == modulePath+"benchmark" {
		return "bench"
	}
	if !strings.HasPrefix(pkg, modulePath) {
		return "runtime_go"
	}
	rel := strings.TrimPrefix(strings.TrimPrefix(pkg, modulePath), "internal/")
	if i := strings.IndexByte(rel, '/'); i >= 0 {
		rel = rel[:i] // sim/runtime -> sim
	}
	switch rel {
	case "sim", "simnet", "tcpstack", "rdma", "core", "crc", "sa",
		"blockserver", "chunkserver", "dpu":
		return rel
	case "transport", "cc", "wire":
		return "transport_cc"
	case "stats", "trace":
		return "stats_trace"
	}
	// ebs itself, and any repository package with no layer of its own.
	return "ebs"
}
