package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// The standard library writes CPU profiles in pprof's gzipped protobuf
// format but ships no reader for it, so this file decodes the handful of
// fields layer attribution needs: each sample's stack of location IDs and
// CPU time, each location's (possibly inlined) function lines, and the
// function names.
//
// Field numbers follow github.com/google/pprof/proto/profile.proto.

type profSample struct {
	locations []uint64 // leaf first
	value     int64    // CPU nanoseconds (last sample value)
}

type profile struct {
	samples   []profSample
	locations map[uint64][]uint64 // location ID -> function IDs, innermost first
	functions map[uint64]int64    // function ID -> name index into strings
	strings   []string
}

// funcNames returns the function names of a sample's stack, leaf first,
// inlined frames expanded innermost first.
func (p *profile) funcNames(s profSample) []string {
	var names []string
	for _, loc := range s.locations {
		for _, fn := range p.locations[loc] {
			if i := p.functions[fn]; i >= 0 && int(i) < len(p.strings) {
				names = append(names, p.strings[i])
			}
		}
	}
	return names
}

// attributeCPU charges each sample's CPU time to the innermost frame whose
// function lives in prefix+<layer> for one of layers, so work in helper
// packages (sort, maps, geometry) counts toward the layer that called it.
// Samples with no such frame go to "runtime.other". It returns each
// layer's share of the profile's total CPU time.
func attributeCPU(p *profile, prefix string, layers []string) map[string]float64 {
	known := make(map[string]bool, len(layers))
	for _, l := range layers {
		known[l] = true
	}
	byLayer := make(map[string]int64)
	var total int64
	for _, s := range p.samples {
		total += s.value
		layer := "runtime.other"
		for _, name := range p.funcNames(s) {
			if !strings.HasPrefix(name, prefix) {
				continue
			}
			rest := name[len(prefix):]
			if i := strings.IndexAny(rest, "./"); i >= 0 {
				rest = rest[:i]
			}
			if known[rest] {
				layer = rest
				break
			}
		}
		byLayer[layer] += s.value
	}
	shares := make(map[string]float64, len(byLayer))
	for l, v := range byLayer {
		shares[l] = ratio(float64(v), float64(total))
	}
	return shares
}

// parseProfile decodes a gzipped pprof protobuf.
func parseProfile(data []byte) (*profile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	p := &profile{locations: map[uint64][]uint64{}, functions: map[uint64]int64{}}
	err = eachField(raw, func(num int, wire int, v uint64, b []byte) error {
		switch {
		case num == 2 && wire == 2:
			s, err := parseSample(b)
			if err != nil {
				return err
			}
			p.samples = append(p.samples, s)
		case num == 4 && wire == 2:
			id, fns, err := parseLocation(b)
			if err != nil {
				return err
			}
			p.locations[id] = fns
		case num == 5 && wire == 2:
			var id uint64
			name := int64(-1)
			if err := eachField(b, func(n, w int, v uint64, _ []byte) error {
				switch {
				case n == 1 && w == 0:
					id = v
				case n == 2 && w == 0:
					name = int64(v)
				}
				return nil
			}); err != nil {
				return err
			}
			p.functions[id] = name
		case num == 6 && wire == 2:
			p.strings = append(p.strings, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return p, nil
}

func parseSample(b []byte) (profSample, error) {
	var s profSample
	var values []int64
	err := eachField(b, func(num, wire int, v uint64, sub []byte) error {
		switch {
		case num == 1 && wire == 0:
			s.locations = append(s.locations, v)
		case num == 1 && wire == 2:
			return eachVarint(sub, func(x uint64) { s.locations = append(s.locations, x) })
		case num == 2 && wire == 0:
			values = append(values, int64(v))
		case num == 2 && wire == 2:
			return eachVarint(sub, func(x uint64) { values = append(values, int64(x)) })
		}
		return nil
	})
	if len(values) > 0 {
		s.value = values[len(values)-1]
	}
	return s, err
}

func parseLocation(b []byte) (id uint64, fns []uint64, err error) {
	err = eachField(b, func(num, wire int, v uint64, sub []byte) error {
		switch {
		case num == 1 && wire == 0:
			id = v
		case num == 4 && wire == 2:
			return eachField(sub, func(n, w int, v uint64, _ []byte) error {
				if n == 1 && w == 0 {
					fns = append(fns, v)
				}
				return nil
			})
		}
		return nil
	})
	return id, fns, err
}

var errTruncated = errors.New("profile: truncated protobuf")

// eachField walks one protobuf message, calling fn with each field's number
// and wire type, and either its varint value (wire 0) or its bytes (wire 2).
// Fixed-width fields are skipped.
func eachField(b []byte, fn func(num, wire int, v uint64, sub []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		b = b[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var sub []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errTruncated
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errTruncated
			}
			b = b[8:]
			continue
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errTruncated
			}
			sub = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errTruncated
			}
			b = b[4:]
			continue
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
		if err := fn(num, wire, v, sub); err != nil {
			return err
		}
	}
	return nil
}

func eachVarint(b []byte, fn func(uint64)) error {
	for len(b) > 0 {
		v, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		fn(v)
		b = b[n:]
	}
	return nil
}
