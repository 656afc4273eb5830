package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"slices"
	"strings"
)

// Layers are the packages CPU time is attributed to, in report order. Each
// is a repro/internal/<pkg> package, except three buckets: "bench" (the
// benchmark's own client and harness code), "other" (a repro/internal
// package not listed) and "go-bg" (stacks with no repo frame at all: GC
// workers, the scheduler, net/http connection plumbing).
var Layers = []string{
	"plan", "geom", "reach", "rta", "runtime", "pubsub", "calendar", "plant",
	"controller", "battery", "node", "obs", "sim", "mission", "scenario",
	"fleet", "store", "service", "certify", "falsify", "bench", "other", "go-bg",
}

// layerOf classifies one function name of a Go symbol table: the package
// under repro/internal/, "bench" for the benchmark's main package, or "" for
// any other frame (standard library, Go runtime), which belongs to its
// nearest repo caller.
func layerOf(fn string) string {
	const internal = "repro/internal/"
	if rest, ok := strings.CutPrefix(fn, internal); ok {
		if i := strings.IndexAny(rest, "./"); i >= 0 {
			rest = rest[:i]
		}
		if slices.Contains(Layers, rest) {
			return rest
		}
		return "other"
	}
	if strings.HasPrefix(fn, "main.") {
		return "bench"
	}
	return ""
}

// attribute charges one sample to the innermost repo frame of its stack,
// given leaf first.
func attribute(stack []string) string {
	for _, fn := range stack {
		if l := layerOf(fn); l != "" {
			return l
		}
	}
	return "go-bg"
}

// Sample is one stack of a CPU profile, leaf first, with its CPU time.
type Sample struct {
	Stack []string
	Nanos int64
}

// CPUByLayer sums a CPU profile's samples per layer, in nanoseconds.
func CPUByLayer(samples []Sample) map[string]int64 {
	out := make(map[string]int64, len(Layers))
	for _, s := range samples {
		out[attribute(s.Stack)] += s.Nanos
	}
	return out
}

// ParseCPUProfile decodes a (gzipped) pprof protobuf CPU profile as written
// by runtime/pprof into its samples. Only the fields attribution needs are
// read: samples (location ids and values), locations (their line entries,
// innermost inlined function first) and functions (their names).
func ParseCPUProfile(raw []byte) ([]Sample, error) {
	if len(raw) >= 2 && raw[0] == 0x1f && raw[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(raw))
		if err != nil {
			return nil, fmt.Errorf("profile: %w", err)
		}
		if raw, err = io.ReadAll(zr); err != nil {
			return nil, fmt.Errorf("profile: %w", err)
		}
	}
	type rawSample struct {
		locs   []uint64
		values []int64
	}
	var (
		strs      []string
		samples   []rawSample
		locFuncs  = map[uint64][]uint64{} // location id → function ids, leaf first
		funcNames = map[uint64]int64{}    // function id → string index
		period    int64
	)
	err := walk(raw, func(field int, wire int, v uint64, b []byte) error {
		switch field {
		case 2: // sample
			var s rawSample
			err := walk(b, func(f, w int, v uint64, b []byte) error {
				switch f {
				case 1:
					return repeated(w, v, b, func(x uint64) { s.locs = append(s.locs, x) })
				case 2:
					return repeated(w, v, b, func(x uint64) { s.values = append(s.values, int64(x)) })
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := walk(b, func(f, w int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // line
					return walk(b, func(f, w int, v uint64, _ []byte) error {
						if f == 1 {
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
			err := walk(b, func(f, w int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcNames[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		case 12: // period
			period = int64(v)
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	out := make([]Sample, 0, len(samples))
	for _, s := range samples {
		var stack []string
		for _, loc := range s.locs {
			for _, fn := range locFuncs[loc] {
				if i := funcNames[fn]; i >= 0 && int(i) < len(strs) {
					stack = append(stack, strs[i])
				}
			}
		}
		// CPU profiles carry [samples/count, cpu/nanoseconds].
		var ns int64
		switch {
		case len(s.values) >= 2:
			ns = s.values[1]
		case len(s.values) == 1:
			ns = s.values[0] * period
		}
		out = append(out, Sample{Stack: stack, Nanos: ns})
	}
	return out, nil
}

// walk iterates over the fields of one protobuf message. For varint and
// fixed-width fields fn gets the value in v; for length-delimited fields the
// payload in b.
func walk(msg []byte, fn func(field, wire int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return errors.New("bad field key")
		}
		msg = msg[n:]
		field, wire := int(key>>3), int(key&7)
		var v uint64
		var b []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(msg)
			if n <= 0 {
				return errors.New("bad varint")
			}
			msg = msg[n:]
		case 1:
			if len(msg) < 8 {
				return errors.New("short fixed64")
			}
			v = binary.LittleEndian.Uint64(msg)
			msg = msg[8:]
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errors.New("bad length")
			}
			b = msg[n : n+int(l)]
			msg = msg[n+int(l):]
		case 5:
			if len(msg) < 4 {
				return errors.New("short fixed32")
			}
			v = uint64(binary.LittleEndian.Uint32(msg))
			msg = msg[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := fn(field, wire, v, b); err != nil {
			return err
		}
	}
	return nil
}

// repeated decodes a repeated integer field, packed (wire type 2) or not.
func repeated(wire int, v uint64, b []byte, add func(uint64)) error {
	if wire != 2 {
		add(v)
		return nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("bad packed varint")
		}
		add(x)
		b = b[n:]
	}
	return nil
}
