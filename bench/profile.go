package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"fmt"
	"io"
	"strings"
)

// The layers of the stack, by module name. A CPU sample belongs to the
// layer of its innermost frame that lies in one of this repository's
// packages — so an allocation made under fs.encodeInodeBlock is fs's —
// and to "runtime" when no frame does (the collector's background
// workers, scheduler idling).
var layers = []string{
	"sim", "sched", "disk", "driver", "core", "cache", "fs", "workload",
	"volume", "server", "tracein", "observe", "harness", "runtime",
}

// layerOfPackage folds the packages under repro/internal into layers.
// A package not listed here is harness.
var layerOfPackage = map[string]string{
	"sim": "sim", "sched": "sched",
	"disk": "disk", "seek": "disk", "geom": "disk", "fault": "disk",
	"driver": "driver", "blocktable": "driver", "label": "driver",
	"core": "core", "hotlist": "core",
	"cache": "cache", "fs": "fs", "workload": "workload",
	"volume": "volume", "server": "server",
	"tracein": "tracein", "trace": "tracein",
	"stats": "observe", "metrics": "observe", "telemetry": "observe",
}

// layerOfFunction names the layer a function belongs to, "" for a
// function outside this repository.
func layerOfFunction(name string) string {
	const internal = "repro/internal/"
	switch {
	case strings.HasPrefix(name, internal):
		pkg := name[len(internal):]
		if i := strings.IndexAny(pkg, "./"); i >= 0 {
			pkg = pkg[:i]
		}
		if l, ok := layerOfPackage[pkg]; ok {
			return l
		}
		return "harness"
	case strings.HasPrefix(name, "repro/") || strings.HasPrefix(name, "repro.") || strings.HasPrefix(name, "main."):
		return "harness"
	}
	return ""
}

// cpuByLayer reads a gzipped pprof CPU profile and returns the CPU time
// (the profile's last sample value, nanoseconds) spent in each layer.
func cpuByLayer(gz []byte) (map[string]int64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	p, err := decodeProfile(raw)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	out := make(map[string]int64)
	for _, s := range p.samples {
		layer := "runtime"
	frames:
		for _, loc := range s.locations { // leaf first
			for _, fn := range p.locations[loc] { // innermost inlined function first
				if l := layerOfFunction(p.strings[p.functions[fn]]); l != "" {
					layer = l
					break frames
				}
			}
		}
		out[layer] += s.value
	}
	return out, nil
}

// profile is the part of pprof's profile.proto the roll-up needs.
type profile struct {
	samples   []sample
	locations map[uint64][]uint64 // location id -> function ids, innermost first
	functions map[uint64]int64    // function id -> string-table index of its name
	strings   []string
}

type sample struct {
	locations []uint64
	value     int64 // the last of the sample's values
}

// Field numbers of profile.proto.
const (
	profileSample      = 2
	profileLocation    = 4
	profileFunction    = 5
	profileStringTable = 6
	sampleLocationID   = 1
	sampleValue        = 2
	locationID         = 1
	locationLine       = 4
	lineFunctionID     = 1
	functionID         = 1
	functionName       = 2
)

func decodeProfile(raw []byte) (*profile, error) {
	p := &profile{locations: make(map[uint64][]uint64), functions: make(map[uint64]int64)}
	err := eachField(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case profileSample:
			var s sample
			err := eachField(b, func(num int, v uint64, b []byte) error {
				switch num {
				case sampleLocationID:
					s.locations = appendVarints(s.locations, v, b)
				case sampleValue:
					if vals := appendVarints(nil, v, b); len(vals) > 0 {
						s.value = int64(vals[len(vals)-1])
					}
				}
				return nil
			})
			if err != nil {
				return err
			}
			p.samples = append(p.samples, s)
		case profileLocation:
			var id uint64
			var fns []uint64
			err := eachField(b, func(num int, v uint64, b []byte) error {
				switch num {
				case locationID:
					id = v
				case locationLine:
					return eachField(b, func(num int, v uint64, _ []byte) error {
						if num == lineFunctionID {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			if err != nil {
				return err
			}
			p.locations[id] = fns
		case profileFunction:
			var id uint64
			var name int64
			err := eachField(b, func(num int, v uint64, _ []byte) error {
				switch num {
				case functionID:
					id = v
				case functionName:
					name = int64(v)
				}
				return nil
			})
			if err != nil {
				return err
			}
			p.functions[id] = name
		case profileStringTable:
			p.strings = append(p.strings, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, name := range p.functions {
		if name < 0 || name >= int64(len(p.strings)) {
			return nil, fmt.Errorf("function name index %d outside the string table", name)
		}
	}
	return p, nil
}

// eachField walks one protobuf message, calling fn with the field
// number and either its varint value or its length-delimited bytes.
func eachField(msg []byte, fn func(num int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return fmt.Errorf("bad field key")
		}
		msg = msg[n:]
		num, wire := int(key>>3), key&7
		var v uint64
		var b []byte
		switch wire {
		case 0: // varint
			v, n = binary.Uvarint(msg)
			if n <= 0 {
				return fmt.Errorf("field %d: bad varint", num)
			}
			msg = msg[n:]
		case 1: // 64-bit
			if len(msg) < 8 {
				return fmt.Errorf("field %d: truncated", num)
			}
			msg = msg[8:]
		case 2: // length-delimited
			l, n := binary.Uvarint(msg)
			if n <= 0 || l > uint64(len(msg)-n) {
				return fmt.Errorf("field %d: bad length", num)
			}
			b = msg[n : n+int(l)]
			msg = msg[n+int(l):]
		case 5: // 32-bit
			if len(msg) < 4 {
				return fmt.Errorf("field %d: truncated", num)
			}
			msg = msg[4:]
		default:
			return fmt.Errorf("field %d: wire type %d", num, wire)
		}
		if err := fn(num, v, b); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated varint field's values: the packed
// bytes b when the field came length-delimited, the single value v
// otherwise.
func appendVarints(dst []uint64, v uint64, b []byte) []uint64 {
	if b == nil {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}
