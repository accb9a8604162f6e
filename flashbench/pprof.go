package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
)

// The standard library writes CPU profiles as gzipped protocol buffers
// (github.com/google/pprof/proto/profile.proto) but offers no reader. The
// benchmark needs only each sample's stack of function names and its count,
// so this file decodes just the Sample, Location, Line, Function and
// string-table messages and skips every other field.

// stackSample is one profile sample: a stack of function names, leaf first,
// with inlined frames expanded innermost first, and its sample count.
type stackSample struct {
	stack []string
	count int64
}

// parseProfile decodes a gzipped CPU profile into its samples.
func parseProfile(gz []byte) ([]stackSample, error) {
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
		samples []rawSample
		locFns  = map[uint64][]uint64{} // location id -> function ids, innermost first
		fnName  = map[uint64]uint64{}   // function id -> string index
		strs    []string
	)
	err = eachField(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 2: // Sample
			var s rawSample
			err := eachField(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1: // location_id
					ids, err := uints(v, b)
					s.locs = append(s.locs, ids...)
					return err
				case 2: // value: [samples, cpu-nanoseconds]
					vals, err := uints(v, b)
					if len(vals) > 0 && s.count == 0 {
						s.count = int64(vals[0])
					}
					return err
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // Location
			var id uint64
			var fns []uint64
			err := eachField(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // Line
					return eachField(b, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFns[id] = fns
			return err
		case 5: // Function
			var id, name uint64
			err := eachField(b, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			fnName[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("pprof: %w", err)
	}

	out := make([]stackSample, 0, len(samples))
	for _, s := range samples {
		var stack []string
		for _, loc := range s.locs {
			for _, fn := range locFns[loc] {
				name := "?"
				if i := fnName[fn]; i < uint64(len(strs)) {
					name = strs[i]
				}
				stack = append(stack, name)
			}
		}
		out = append(out, stackSample{stack: stack, count: s.count})
	}
	return out, nil
}

var errTruncated = errors.New("truncated protobuf")

// eachField walks the fields of one protobuf message. For varint fields f
// gets the value in v; for length-delimited fields it gets the bytes in b.
// Fixed-width fields are skipped.
func eachField(msg []byte, f func(num int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := varint(msg)
		if n == 0 {
			return errTruncated
		}
		msg = msg[n:]
		num, wire := int(key>>3), key&7
		var v uint64
		var b []byte
		switch wire {
		case 0:
			v, n = varint(msg)
			if n == 0 {
				return errTruncated
			}
			msg = msg[n:]
		case 1, 5:
			w := 8
			if wire == 5 {
				w = 4
			}
			if len(msg) < w {
				return errTruncated
			}
			msg = msg[w:]
			continue
		case 2:
			l, n := varint(msg)
			if n == 0 || uint64(len(msg)-n) < l {
				return errTruncated
			}
			b = msg[n : n+int(l)]
			msg = msg[n+int(l):]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := f(num, v, b); err != nil {
			return err
		}
	}
	return nil
}

// uints returns a repeated integer field's values, which the encoder writes
// either as one varint (b == nil) or as a packed run of varints.
func uints(v uint64, b []byte) ([]uint64, error) {
	if b == nil {
		return []uint64{v}, nil
	}
	var out []uint64
	for len(b) > 0 {
		x, n := varint(b)
		if n == 0 {
			return out, errTruncated
		}
		out = append(out, x)
		b = b[n:]
	}
	return out, nil
}

// varint decodes one base-128 varint, returning its value and length (0 if
// the input ends mid-varint).
func varint(b []byte) (uint64, int) {
	var x uint64
	for i := 0; i < len(b) && i < 10; i++ {
		x |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}
