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

// The CPU profile runtime/pprof writes is a gzipped profile.proto message.
// foldProfile decodes the few fields it needs with a minimal protobuf reader,
// so the benchmark depends on the standard library alone.

// profModules lists the prof.<module> buckets in print order.
var profModules = []string{
	"simkernel", "netsim", "interest", "stockpoll", "epoll", "eventlib",
	"httpsim", "httpcore", "pushcore", "loadgen", "gc", "malloc", "sort", "other",
}

// repoModule maps a package under repro/internal/ to its layer bucket.
var repoModule = map[string]string{
	"simkernel":        "simkernel",
	"netsim":           "netsim",
	"interest":         "interest",
	"stockpoll":        "stockpoll",
	"epoll":            "epoll",
	"eventlib":         "eventlib",
	"httpsim":          "httpsim",
	"servers/httpcore": "httpcore",
	"rcache":           "httpcore",
	"servers/pushcore": "pushcore",
	"loadgen":          "loadgen",
	"metrics":          "loadgen",
}

// gcRoots are runtime functions below which every frame is collector work:
// background and assist marking, sweeping and write-barrier flushes.
var gcRoots = []string{
	"runtime.gcBgMarkWorker", "runtime.gcAssistAlloc", "runtime.gcDrain",
	"runtime.markroot", "runtime.bgsweep", "runtime.sweepone",
	"runtime.wbBufFlush", "runtime.gcStart", "runtime.gcMarkDone",
	"runtime.gcMarkTermination", "runtime.(*mspan).sweep",
}

// classify buckets one sample by its stack, leaf first: collector work by
// ancestry (its leaves are spread over many runtime helpers), then allocation
// by ancestry, then sorting by its leaf, and otherwise the module of the leaf
// frame.
func classify(stack []string) string {
	for _, fn := range stack {
		for _, root := range gcRoots {
			if fn == root {
				return "gc"
			}
		}
	}
	for _, fn := range stack {
		if strings.HasPrefix(fn, "runtime.mallocgc") || fn == "runtime.growslice" {
			return "malloc"
		}
	}
	if len(stack) == 0 {
		return "other"
	}
	leaf := stack[0]
	if strings.HasPrefix(leaf, "sort.") || strings.HasPrefix(leaf, "slices.") {
		return "sort"
	}
	if rest, ok := strings.CutPrefix(leaf, "repro/internal/"); ok {
		// The package path ends at the first dot after its last slash.
		slash := strings.LastIndexByte(rest, '/')
		if dot := strings.IndexByte(rest[slash+1:], '.'); dot >= 0 {
			rest = rest[:slash+1+dot]
		}
		if m, ok := repoModule[rest]; ok {
			return m
		}
	}
	return "other"
}

// foldProfile returns the percentage of CPU samples in each prof module and
// the total sample count.
func foldProfile(gz []byte) (map[string]float64, int64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, 0, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, 0, fmt.Errorf("profile: %w", err)
	}
	p, err := decodeProfile(raw)
	if err != nil {
		return nil, 0, err
	}
	counts := map[string]int64{}
	var total int64
	for _, s := range p.samples {
		var stack []string
		for _, loc := range s.locs {
			stack = append(stack, p.locFuncs[loc]...)
		}
		counts[classify(stack)] += s.count
		total += s.count
	}
	shares := make(map[string]float64, len(profModules))
	for _, m := range profModules {
		if total > 0 {
			shares[m] = 100 * float64(counts[m]) / float64(total)
		} else {
			shares[m] = 0
		}
	}
	return shares, total, nil
}

type profSample struct {
	locs  []uint64
	count int64
}

type profile struct {
	samples  []profSample
	locFuncs map[uint64][]string // location id -> function names, innermost first
}

// decodeProfile reads profile.proto fields 2 (sample), 4 (location),
// 5 (function) and 6 (string_table).
func decodeProfile(b []byte) (*profile, error) {
	type function struct{ name int64 }
	var (
		samples   []profSample
		locLines  = map[uint64][]uint64{} // location id -> function ids
		functions = map[uint64]function{}
		strs      []string
	)
	err := eachField(b, func(num int, wire int, v uint64, sub []byte) error {
		switch num {
		case 2:
			var s profSample
			var values []int64
			err := eachField(sub, func(num, wire int, v uint64, sub []byte) error {
				switch num {
				case 1:
					return appendVarints(&s.locs, wire, v, sub)
				case 2:
					var u []uint64
					if err := appendVarints(&u, wire, v, sub); err != nil {
						return err
					}
					for _, x := range u {
						values = append(values, int64(x))
					}
				}
				return nil
			})
			if err != nil {
				return err
			}
			if len(values) > 0 {
				s.count = values[0] // sample_type 0 is the sample count
			}
			samples = append(samples, s)
		case 4:
			var id uint64
			var fns []uint64
			err := eachField(sub, func(num, wire int, v uint64, sub []byte) error {
				switch num {
				case 1:
					id = v
				case 4:
					return eachField(sub, func(num, wire int, v uint64, _ []byte) error {
						if num == 1 {
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
			locLines[id] = fns
		case 5:
			var id uint64
			var f function
			err := eachField(sub, func(num, wire int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					f.name = int64(v)
				}
				return nil
			})
			if err != nil {
				return err
			}
			functions[id] = f
		case 6:
			strs = append(strs, string(sub))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	p := &profile{samples: samples, locFuncs: make(map[uint64][]string, len(locLines))}
	for id, fns := range locLines {
		names := make([]string, 0, len(fns))
		for _, fid := range fns {
			if n := functions[fid].name; n >= 0 && n < int64(len(strs)) {
				names = append(names, strs[n])
			}
		}
		p.locFuncs[id] = names
	}
	return p, nil
}

var errTruncated = errors.New("profile: truncated protobuf")

// eachField calls fn for every field of a protobuf message: v carries varint
// and fixed-width values, sub the bytes of length-delimited ones.
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
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
		if err := fn(num, wire, v, sub); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated varint field, packed or not.
func appendVarints(dst *[]uint64, wire int, v uint64, sub []byte) error {
	if wire == 0 {
		*dst = append(*dst, v)
		return nil
	}
	for len(sub) > 0 {
		x, n := binary.Uvarint(sub)
		if n <= 0 {
			return errTruncated
		}
		*dst = append(*dst, x)
		sub = sub[n:]
	}
	return nil
}
