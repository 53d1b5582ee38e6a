package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"runtime/pprof"
	"strings"
)

// profileRows are the rows a CPU profile folds into: the modules under
// internal/ that the workloads run, garbage collection, and everything
// else (runtime scheduling, syscalls, the benchmark's own code).
var profileRows = []string{
	"broadcast", "coin", "core", "dag", "quorum", "rider", "service",
	"sim", "transport", "types", "wire", "gc", "other",
}

// gcFrames mark a sample as garbage-collection work wherever they appear
// in its stack. Allocation itself (mallocgc) stays with its caller.
var gcFrames = map[string]bool{
	"runtime.gcBgMarkWorker": true,
	"runtime.gcAssistAlloc":  true,
	"runtime.gcAssistAlloc1": true,
	"runtime.bgsweep":        true,
	"runtime.bgscavenge":     true,
	"runtime.gcStart":        true,
	"runtime.gcMarkDone":     true,
}

// withCPUProfile runs fn under the CPU profiler and returns the profile.
func withCPUProfile(fn func()) ([]byte, error) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		return nil, err
	}
	fn()
	pprof.StopCPUProfile()
	return buf.Bytes(), nil
}

// foldCPUProfile attributes each sample of a gzipped pprof CPU profile to
// the innermost frame in a repro/internal/<module> package, or to "gc" or
// "other", and returns each row's share of all samples.
func foldCPUProfile(gz []byte) (map[string]float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	var samples [][]byte
	var strs []string
	funcName := map[uint64]uint64{}   // function id -> string index
	locFuncs := map[uint64][]uint64{} // location id -> function ids, innermost first
	err = pbFields(raw, func(num, wt int, v uint64, data []byte) error {
		switch num {
		case 2:
			samples = append(samples, data)
		case 4:
			var id uint64
			var fns []uint64
			err := pbFields(data, func(num, wt int, v uint64, data []byte) error {
				switch num {
				case 1:
					id = v
				case 4:
					return pbFields(data, func(num, wt int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = fns
			return err
		case 5:
			var id, name uint64
			err := pbFields(data, func(num, wt int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			funcName[id] = name
			return err
		case 6:
			strs = append(strs, string(data))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	name := func(fn uint64) string {
		if i := funcName[fn]; i < uint64(len(strs)) {
			return strs[i]
		}
		return ""
	}
	known := map[string]bool{}
	for _, r := range profileRows {
		known[r] = true
	}
	counts := map[string]float64{}
	var total float64
	for _, s := range samples {
		var locs, vals []uint64
		err := pbFields(s, func(num, wt int, v uint64, data []byte) error {
			var err error
			switch num {
			case 1:
				locs, err = appendUints(locs, wt, v, data)
			case 2:
				vals, err = appendUints(vals, wt, v, data)
			}
			return err
		})
		if err != nil {
			return nil, err
		}
		if len(vals) == 0 {
			continue
		}
		row := ""
		for _, l := range locs { // leaf first
			for _, fn := range locFuncs[l] {
				n := name(fn)
				if gcFrames[n] {
					row = "gc"
				} else if mod, ok := strings.CutPrefix(n, "repro/internal/"); ok && row == "" {
					mod, _, _ = strings.Cut(mod, ".")
					row = mod
				}
			}
		}
		if !known[row] {
			row = "other"
		}
		counts[row] += float64(vals[0])
		total += float64(vals[0])
	}
	shares := map[string]float64{}
	for r, c := range counts {
		shares[r] = c / total
	}
	return shares, nil
}

// pbFields walks the fields of one protocol-buffer message, calling fn
// with the field number, wire type, and the varint or fixed value or the
// length-delimited bytes.
func pbFields(b []byte, fn func(num, wt int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("cpu profile: bad field key")
		}
		b = b[n:]
		num, wt := int(key>>3), int(key&7)
		var v uint64
		var data []byte
		switch wt {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errors.New("cpu profile: bad varint")
			}
			b = b[n:]
		case 1, 5:
			size := 8
			if wt == 5 {
				size = 4
			}
			if len(b) < size {
				return errors.New("cpu profile: truncated fixed field")
			}
			b = b[size:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("cpu profile: bad length")
			}
			data = b[n : n+int(l)]
			b = b[n+int(l):]
		default:
			return fmt.Errorf("cpu profile: wire type %d", wt)
		}
		if err := fn(num, wt, v, data); err != nil {
			return err
		}
	}
	return nil
}

// appendUints appends a repeated varint field, packed or not.
func appendUints(dst []uint64, wt int, v uint64, data []byte) ([]uint64, error) {
	if wt == 0 {
		return append(dst, v), nil
	}
	for len(data) > 0 {
		x, n := binary.Uvarint(data)
		if n <= 0 {
			return nil, errors.New("cpu profile: bad packed varint")
		}
		dst = append(dst, x)
		data = data[n:]
	}
	return dst, nil
}
