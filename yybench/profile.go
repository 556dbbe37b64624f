package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"runtime/pprof"
	"slices"
	"strings"
)

// cpuProfile records a runtime/pprof CPU profile of the benchmark
// process and charges its samples to layers.
type cpuProfile struct {
	buf bytes.Buffer
	// ns accumulates sampled CPU nanoseconds per layer bucket over every
	// recorded interval.
	ns map[string]int64
}

func newCPUProfile() *cpuProfile { return &cpuProfile{ns: map[string]int64{}} }

func (p *cpuProfile) start() error {
	p.buf.Reset()
	return pprof.StartCPUProfile(&p.buf)
}

func (p *cpuProfile) stop() error {
	pprof.StopCPUProfile()
	return bucketProfile(p.buf.Bytes(), p.ns)
}

// shares returns each bucket's share of the sampled CPU time; the
// values sum to 1 unless nothing was sampled.
func (p *cpuProfile) shares() map[string]float64 {
	var total int64
	for _, v := range p.ns {
		total += v
	}
	out := map[string]float64{}
	for _, b := range slices.Concat(cpuLayers, []string{gcLayer, otherLayer}) {
		out[b] = ratio(float64(p.ns[b]), float64(total))
	}
	return out
}

const (
	gcLayer    = "runtime.gc"
	otherLayer = "other"
)

// layerOf maps a profile function name to its layer. Functions of
// packages without a layer of their own (fuel, bugdb, the standard
// library, the runtime) report false, so their samples pass on to the
// nearest calling layer: map, allocation and GC-assist work is charged
// to the layer that caused it.
func layerOf(fn string) (string, bool) {
	pkg, ok := strings.CutPrefix(packageOf(fn), "repro/internal/")
	if !ok {
		return "", false
	}
	layer := strings.ReplaceAll(pkg, "/", ".")
	return layer, slices.Contains(cpuLayers, layer)
}

// packageOf extracts the import path from a symbol name such as
// "repro/internal/solver/strings.(*Solver).search.func1" or
// "slices.SortFunc[...]". Type arguments may contain slashes and
// dots, so they are cut off first.
func packageOf(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i]
	}
	slash := strings.LastIndexByte(fn, '/')
	if dot := strings.IndexByte(fn[slash+1:], '.'); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return fn
}

// classify picks the bucket of one sample from its frames, innermost
// first.
func classify(frames []string) string {
	for _, f := range frames {
		if l, ok := layerOf(f); ok {
			return l
		}
	}
	for _, f := range frames {
		switch f {
		case "runtime.gcBgMarkWorker", "runtime.bgsweep", "runtime.bgscavenge":
			return gcLayer
		}
	}
	return otherLayer
}

// bucketProfile decodes a gzipped profile.proto CPU profile, as written
// by runtime/pprof, and adds each sample's CPU time to its bucket in ns.
// Only the fields the bucketing needs are read: samples (location ids,
// values), locations (id, lines), functions (id, name) and the string
// table.
func bucketProfile(data []byte, ns map[string]int64) error {
	if len(data) == 0 {
		return nil
	}
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return fmt.Errorf("profile: %w", err)
	}
	type sample struct {
		locs   []uint64
		values []uint64
	}
	var (
		samples   []sample
		locFuncs  = map[uint64][]uint64{} // location id → function ids, innermost first
		funcNames = map[uint64]uint64{}   // function id → string index
		strtab    []string
	)
	err = eachField(raw, func(field int, v uint64, b []byte) error {
		switch field {
		case 2: // sample
			var s sample
			err := eachField(b, func(field int, v uint64, b []byte) error {
				switch field {
				case 1:
					s.locs = appendPacked(s.locs, v, b)
				case 2:
					s.values = appendPacked(s.values, v, b)
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := eachField(b, func(field int, v uint64, b []byte) error {
				switch field {
				case 1:
					id = v
				case 4: // line
					return eachField(b, func(field int, v uint64, _ []byte) error {
						if field == 1 {
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
			var id, name uint64
			err := eachField(b, func(field int, v uint64, _ []byte) error {
				switch field {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			funcNames[id] = name
			return err
		case 6: // string table
			strtab = append(strtab, string(b))
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("profile: %w", err)
	}
	var frames []string
	for _, s := range samples {
		if len(s.values) == 0 {
			continue
		}
		frames = frames[:0]
		for _, loc := range s.locs {
			for _, fn := range locFuncs[loc] {
				if i := funcNames[fn]; i < uint64(len(strtab)) {
					frames = append(frames, strtab[i])
				}
			}
		}
		// The last value of a CPU profile sample is its CPU time in ns.
		ns[classify(frames)] += int64(s.values[len(s.values)-1])
	}
	return nil
}

var errTruncated = errors.New("truncated protobuf")

// eachField walks the fields of one protobuf message, calling fn with
// the field number and either the varint value (wire type 0) or the
// payload bytes (wire type 2). Fixed-width fields are skipped.
func eachField(b []byte, fn func(field int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		b = b[n:]
		field, wire := int(key>>3), key&7
		var v uint64
		var payload []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errTruncated
			}
			b = b[n:]
		case 1, 5:
			width := 8
			if wire == 5 {
				width = 4
			}
			if len(b) < width {
				return errTruncated
			}
			b = b[width:]
			continue
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errTruncated
			}
			payload, b = b[n:n+int(l)], b[n+int(l):]
		default:
			return fmt.Errorf("unsupported protobuf wire type %d", wire)
		}
		if err := fn(field, v, payload); err != nil {
			return err
		}
	}
	return nil
}

// appendPacked appends a repeated varint field given either unpacked
// (one value v) or packed (payload b).
func appendPacked(dst []uint64, v uint64, b []byte) []uint64 {
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
