package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
)

// profile is the part of a pprof profile (profile.proto) the layer
// budget reads: the sample types and, per sample, its values and its
// call stack as function names, leaf first, with inlined frames
// expanded.
type profile struct {
	SampleTypes []string
	Samples     []profileSample
}

type profileSample struct {
	Stack  []string
	Values []int64
}

// valueIndex returns the index of the named sample type.
func (p *profile) valueIndex(name string) (int, error) {
	for i, t := range p.SampleTypes {
		if t == name {
			return i, nil
		}
	}
	return 0, fmt.Errorf("profile has no %q samples (types %v)", name, p.SampleTypes)
}

// byLayer sums the named sample value per layer.
func (p *profile) byLayer(sampleType string) (map[string]int64, error) {
	vi, err := p.valueIndex(sampleType)
	if err != nil {
		return nil, err
	}
	out := make(map[string]int64)
	for _, s := range p.Samples {
		if vi < len(s.Values) {
			out[layerOfStack(s.Stack)] += s.Values[vi]
		}
	}
	return out, nil
}

// parseProfile decodes a pprof profile, gzipped or not, with the
// standard library only.
func parseProfile(data []byte) (*profile, error) {
	if len(data) >= 2 && data[0] == 0x1f && data[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(data))
		if err != nil {
			return nil, fmt.Errorf("profile: %w", err)
		}
		if data, err = io.ReadAll(zr); err != nil {
			return nil, fmt.Errorf("profile: %w", err)
		}
	}
	var (
		strs      []string
		typeIdx   []int64
		rawSample [][]byte
		funcName  = map[uint64]int64{}    // function id -> string index
		locFuncs  = map[uint64][]uint64{} // location id -> function ids, leaf first
	)
	err := eachField(data, func(num int, v uint64, b []byte) error {
		switch num {
		case 1: // sample_type
			return eachField(b, func(n int, v uint64, _ []byte) error {
				if n == 1 {
					typeIdx = append(typeIdx, int64(v))
				}
				return nil
			})
		case 2: // sample
			rawSample = append(rawSample, b)
		case 4: // location
			var id uint64
			var fns []uint64
			err := eachField(b, func(n int, v uint64, lb []byte) error {
				switch n {
				case 1:
					id = v
				case 4: // line
					return eachField(lb, func(n int, v uint64, _ []byte) error {
						if n == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = fns
			return err
		case 5: // function
			var id uint64
			var name int64
			err := eachField(b, func(n int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcName[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	str := func(i int64) string {
		if i < 0 || i >= int64(len(strs)) {
			return ""
		}
		return strs[i]
	}
	p := &profile{}
	for _, i := range typeIdx {
		p.SampleTypes = append(p.SampleTypes, str(i))
	}
	for _, raw := range rawSample {
		var locs []uint64
		var s profileSample
		err := eachField(raw, func(n int, v uint64, b []byte) error {
			switch n {
			case 1:
				if b == nil {
					locs = append(locs, v)
					return nil
				}
				return eachVarint(b, func(v uint64) { locs = append(locs, v) })
			case 2:
				if b == nil {
					s.Values = append(s.Values, int64(v))
					return nil
				}
				return eachVarint(b, func(v uint64) { s.Values = append(s.Values, int64(v)) })
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		for _, l := range locs {
			for _, f := range locFuncs[l] {
				s.Stack = append(s.Stack, str(funcName[f]))
			}
		}
		p.Samples = append(p.Samples, s)
	}
	return p, nil
}

var errTruncated = errors.New("profile: truncated protobuf")

// varint decodes one base-128 varint from the front of b.
func varint(b []byte) (uint64, int, error) {
	var v uint64
	for i := 0; i < len(b) && i < 10; i++ {
		v |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return v, i + 1, nil
		}
	}
	return 0, 0, errTruncated
}

// eachField walks the fields of one protobuf message. Varint fields
// arrive as v with b nil; length-delimited fields arrive as b (never
// nil); fixed-width fields are skipped.
func eachField(msg []byte, fn func(num int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n, err := varint(msg)
		if err != nil {
			return err
		}
		msg = msg[n:]
		num, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n, err := varint(msg)
			if err != nil {
				return err
			}
			msg = msg[n:]
			if err := fn(num, v, nil); err != nil {
				return err
			}
		case 1, 5:
			width := 8
			if wire == 5 {
				width = 4
			}
			if len(msg) < width {
				return errTruncated
			}
			msg = msg[width:]
		case 2:
			l, n, err := varint(msg)
			if err != nil {
				return err
			}
			msg = msg[n:]
			if uint64(len(msg)) < l {
				return errTruncated
			}
			if err := fn(num, 0, msg[:l:l]); err != nil {
				return err
			}
			msg = msg[l:]
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
	}
	return nil
}

// eachVarint walks a packed repeated varint field.
func eachVarint(b []byte, fn func(uint64)) error {
	for len(b) > 0 {
		v, n, err := varint(b)
		if err != nil {
			return err
		}
		fn(v)
		b = b[n:]
	}
	return nil
}
