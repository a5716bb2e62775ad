package main

// This file reads the CPU profile that runtime/pprof writes (gzipped
// profile.proto) with just enough of a protobuf decoder to recover each
// sample's stack, and charges every sample to one layer.

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"path"
	"strings"
)

// frame is one (possibly inlined) function of a sampled stack.
type frame struct {
	fn, file string
}

// profSample is one stack, leaf first, with its sample count.
type profSample struct {
	stack []frame
	count int64
}

// parseProfile decodes a gzipped pprof CPU profile.
func parseProfile(gz []byte) ([]profSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	data, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type line struct{ fn uint64 }
	type function struct{ name, file int64 }
	type sample struct {
		locs   []uint64
		values []int64
	}
	var (
		samples   []sample
		locations = map[uint64][]line{}
		functions = map[uint64]function{}
		strs      []string
	)
	err = walkFields(data, func(field int, wire int, v uint64, b []byte) error {
		switch field {
		case 2: // Sample
			var s sample
			err := walkFields(b, func(f, w int, v uint64, b []byte) error {
				switch f {
				case 1:
					return appendUints(&s.locs, w, v, b)
				case 2:
					var vals []uint64
					if err := appendUints(&vals, w, v, b); err != nil {
						return err
					}
					for _, x := range vals {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // Location
			var id uint64
			var lines []line
			err := walkFields(b, func(f, w int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4:
					var ln line
					err := walkFields(b, func(f, w int, v uint64, b []byte) error {
						if f == 1 {
							ln.fn = v
						}
						return nil
					})
					lines = append(lines, ln)
					return err
				}
				return nil
			})
			locations[id] = lines
			return err
		case 5: // Function
			var id uint64
			var fn function
			err := walkFields(b, func(f, w int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					fn.name = int64(v)
				case 4:
					fn.file = int64(v)
				}
				return nil
			})
			functions[id] = fn
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
	out := make([]profSample, 0, len(samples))
	for _, s := range samples {
		if len(s.values) == 0 {
			return nil, errors.New("profile: sample without values")
		}
		ps := profSample{count: s.values[0]}
		for _, id := range s.locs {
			for _, ln := range locations[id] {
				fn := functions[ln.fn]
				ps.stack = append(ps.stack, frame{fn: str(fn.name), file: str(fn.file)})
			}
		}
		out = append(out, ps)
	}
	return out, nil
}

// walkFields calls fn for every field of one protobuf message: v carries
// varint and fixed-width values, b the bytes of length-delimited ones.
func walkFields(data []byte, fn func(field, wire int, v uint64, b []byte) error) error {
	for len(data) > 0 {
		key, n := uvarint(data)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		data = data[n:]
		field, wire := int(key>>3), int(key&7)
		var v uint64
		var b []byte
		switch wire {
		case 0:
			v, n = uvarint(data)
			if n <= 0 {
				return errors.New("profile: bad varint")
			}
			data = data[n:]
		case 1, 5:
			w := 8
			if wire == 5 {
				w = 4
			}
			if len(data) < w {
				return errors.New("profile: truncated fixed field")
			}
			for i := w - 1; i >= 0; i-- {
				v = v<<8 | uint64(data[i])
			}
			data = data[w:]
		case 2:
			l, n := uvarint(data)
			if n <= 0 || l > uint64(len(data)-n) {
				return errors.New("profile: bad length")
			}
			b = data[n : n+int(l)]
			data = data[n+int(l):]
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
		if err := fn(field, wire, v, b); err != nil {
			return err
		}
	}
	return nil
}

// appendUints appends a repeated integer field, packed or not.
func appendUints(dst *[]uint64, wire int, v uint64, b []byte) error {
	if wire != 2 {
		*dst = append(*dst, v)
		return nil
	}
	for len(b) > 0 {
		x, n := uvarint(b)
		if n <= 0 {
			return errors.New("profile: bad packed varint")
		}
		*dst = append(*dst, x)
		b = b[n:]
	}
	return nil
}

func uvarint(b []byte) (uint64, int) {
	var x uint64
	for i := 0; i < len(b) && i < 10; i++ {
		x |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}

const modPrefix = "crve/internal/"

// catgFiles splits the catg package by source file into the bench's three
// roles: stimulus, checking and coverage. A test keeps it complete.
var catgFiles = map[string]string{
	"harness.go": "catg.bfm", "traffic.go": "catg.bfm", "faults.go": "catg.bfm",
	"monitor.go": "catg.check", "assembler.go": "catg.check",
	"checker.go": "catg.check", "scoreboard.go": "catg.check",
	"covmodel.go": "catg.cov", "union.go": "catg.cov",
}

// layerOf charges one stack (leaf first) to a layer:
//   - GC background workers go to runtime.gc;
//   - anything under the exact core.buildBench frame goes to core.build
//     (its closures, such as core.buildBench.func1, run in the cycle loop
//     and are not construction);
//   - otherwise the innermost crve/internal frame names the layer;
//   - anything else is other.
func layerOf(stack []frame) string {
	for _, f := range stack {
		switch f.fn {
		case "runtime.gcBgMarkWorker":
			return "runtime.gc"
		case modPrefix + "core.buildBench":
			return "core.build"
		}
	}
	for _, f := range stack {
		if strings.HasPrefix(f.fn, modPrefix) {
			return frameLayer(f)
		}
	}
	return "other"
}

// frameLayer names the layer of one crve/internal frame. The package comes
// from the frame's source directory, not its name: a closure inside a
// function inlined from another package is named after the caller, as in
// core.buildBench.(*Observer).Attach.func1, which is stba code.
func frameLayer(f frame) string {
	pkg := strings.TrimPrefix(f.fn, modPrefix)
	if i := strings.IndexAny(pkg, "./"); i >= 0 {
		pkg = pkg[:i]
	}
	dir, file := path.Split(f.file)
	if dir = path.Clean(dir); path.Base(path.Dir(dir)) == "internal" {
		pkg = path.Base(dir)
	}
	if l, ok := catgFiles[file]; ok && pkg == "catg" {
		return l
	}
	for _, l := range cpuLayers {
		if l == pkg {
			return l
		}
	}
	return "other"
}

// cpuShares charges every sample to its layer and returns the per-layer
// share of samples in percent, plus the sample total.
func cpuShares(samples []profSample) (map[string]float64, int64) {
	counts := make(map[string]int64)
	var total int64
	for _, s := range samples {
		counts[layerOf(s.stack)] += s.count
		total += s.count
	}
	shares := make(map[string]float64, len(cpuLayers))
	for _, l := range cpuLayers {
		if total > 0 {
			shares[l] = 100 * float64(counts[l]) / float64(total)
		} else {
			shares[l] = 0
		}
	}
	return shares, total
}
