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

// CPU attribution: every sample of a Go CPU profile is charged to the
// innermost repro/internal/... package on its stack, so math/big time
// lands on the crypto package that called it. Samples with no repo frame
// (the garbage collector, the runtime scheduler) go to "gc".

const repoPrefix = "repro/internal/"

// layerOf maps a repo package path (below repro/internal/) to its layer.
// Packages outside the issue's layer map fall into crypto.other or other.
func layerOf(pkg string) string {
	switch pkg {
	case "sim", "wireless", "packet", "core", "component", "protocol", "node", "run":
		return pkg
	case "crypto/threshsig", "crypto/mont", "crypto/threshenc", "crypto/dleq", "crypto/group":
		return strings.Replace(pkg, "/", ".", 1)
	}
	if pkg == "crypto" || strings.HasPrefix(pkg, "crypto/") {
		return "crypto.other"
	}
	return "other"
}

// cpuLayers lists the reported layers in a fixed order.
var cpuLayers = []string{
	"sim", "wireless", "packet", "core", "component", "protocol", "node", "run",
	"crypto.threshsig", "crypto.mont", "crypto.threshenc", "crypto.dleq", "crypto.group",
	"crypto.other", "other", "gc",
}

// funcPackage extracts the package path from a Go symbol name such as
// "repro/internal/sim.(*Scheduler).Step" or "repro/internal/run.runChain.func3".
func funcPackage(name string) string {
	slash := strings.LastIndex(name, "/")
	dot := strings.Index(name[slash+1:], ".")
	if dot < 0 {
		return name
	}
	return name[:slash+1+dot]
}

// cpuShares parses a gzipped pprof CPU profile and returns each layer's
// share of sampled CPU time.
func cpuShares(gz []byte) (map[string]float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	p, err := parseProfile(raw)
	if err != nil {
		return nil, err
	}
	layerOfFunc := make(map[uint64]string, len(p.funcs))
	for id, nameIdx := range p.funcs {
		if nameIdx >= uint64(len(p.strings)) {
			return nil, errors.New("profile: function name out of range")
		}
		name := p.strings[nameIdx]
		if strings.HasPrefix(name, repoPrefix) {
			layerOfFunc[id] = layerOf(strings.TrimPrefix(funcPackage(name), repoPrefix))
		}
	}
	// Each location lists its inlined frames innermost first.
	layerOfLoc := make(map[uint64]string, len(p.locs))
	for id, fns := range p.locs {
		for _, fn := range fns {
			if l, ok := layerOfFunc[fn]; ok {
				layerOfLoc[id] = l
				break
			}
		}
	}
	total := 0.0
	sums := map[string]float64{}
	for _, s := range p.samples {
		layer := "gc"
		for _, loc := range s.locs { // leaf first
			if l, ok := layerOfLoc[loc]; ok {
				layer = l
				break
			}
		}
		sums[layer] += s.value
		total += s.value
	}
	if total == 0 {
		return nil, errors.New("profile: no samples")
	}
	out := make(map[string]float64, len(cpuLayers))
	for _, l := range cpuLayers {
		out[l] = sums[l] / total
	}
	return out, nil
}

// profile is the subset of the pprof protobuf the attribution reads.
type profile struct {
	strings []string
	funcs   map[uint64]uint64   // function id -> name string index
	locs    map[uint64][]uint64 // location id -> function ids, innermost first
	samples []sample
}

type sample struct {
	locs  []uint64
	value float64 // the last sample value: CPU nanoseconds
}

// Field numbers of perftools.profiles.Profile and its messages.
const (
	fProfileSample   = 2
	fProfileLocation = 4
	fProfileFunction = 5
	fProfileStrings  = 6
	fSampleLocation  = 1
	fSampleValue     = 2
	fLocationID      = 1
	fLocationLine    = 4
	fLineFunction    = 1
	fFunctionID      = 1
	fFunctionName    = 2
)

func parseProfile(raw []byte) (*profile, error) {
	p := &profile{funcs: map[uint64]uint64{}, locs: map[uint64][]uint64{}}
	err := walk(raw, func(field int, v uint64, b []byte) error {
		switch field {
		case fProfileSample:
			var s sample
			var vals []uint64
			if err := walk(b, func(f int, v uint64, b []byte) error {
				switch f {
				case fSampleLocation:
					return varints(v, b, &s.locs)
				case fSampleValue:
					return varints(v, b, &vals)
				}
				return nil
			}); err != nil {
				return err
			}
			if len(vals) > 0 {
				s.value = float64(int64(vals[len(vals)-1]))
			}
			p.samples = append(p.samples, s)
		case fProfileLocation:
			var id uint64
			var fns []uint64
			if err := walk(b, func(f int, v uint64, b []byte) error {
				switch f {
				case fLocationID:
					id = v
				case fLocationLine:
					return walk(b, func(f int, v uint64, _ []byte) error {
						if f == fLineFunction {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			}); err != nil {
				return err
			}
			p.locs[id] = fns
		case fProfileFunction:
			var id, name uint64
			if err := walk(b, func(f int, v uint64, _ []byte) error {
				switch f {
				case fFunctionID:
					id = v
				case fFunctionName:
					name = v
				}
				return nil
			}); err != nil {
				return err
			}
			p.funcs[id] = name
		case fProfileStrings:
			p.strings = append(p.strings, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return p, nil
}

var errProto = errors.New("profile: malformed protobuf")

// walk calls fn for each field of a protobuf message: v holds a varint
// field's value, b a length-delimited field's bytes. Fixed-width fields
// are skipped.
func walk(buf []byte, fn func(field int, v uint64, b []byte) error) error {
	for len(buf) > 0 {
		key, n := binary.Uvarint(buf)
		if n <= 0 {
			return errProto
		}
		buf = buf[n:]
		field, wire := int(key>>3), key&7
		var v uint64
		var b []byte
		switch wire {
		case 0:
			if v, n = binary.Uvarint(buf); n <= 0 {
				return errProto
			}
			buf = buf[n:]
		case 1:
			if len(buf) < 8 {
				return errProto
			}
			buf = buf[8:]
			continue
		case 2:
			l, n := binary.Uvarint(buf)
			if n <= 0 || uint64(len(buf)-n) < l {
				return errProto
			}
			b, buf = buf[n:n+int(l)], buf[n+int(l):]
		case 5:
			if len(buf) < 4 {
				return errProto
			}
			buf = buf[4:]
			continue
		default:
			return errProto
		}
		if err := fn(field, v, b); err != nil {
			return err
		}
	}
	return nil
}

// varints appends a repeated uint64 field's values, packed (b) or not (v).
func varints(v uint64, b []byte, out *[]uint64) error {
	if b == nil {
		*out = append(*out, v)
		return nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return errProto
		}
		*out = append(*out, x)
		b = b[n:]
	}
	return nil
}
