package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
	"time"
)

// modulePrefix marks the frames that belong to the program under test; the
// path element after it names the layer (module) a frame is charged to.
const modulePrefix = "bitcoinng/internal/"

// gcWorker is the runtime's background mark worker: samples with it on the
// stack are garbage-collection work, not work of any module.
const gcWorker = "runtime.gcBgMarkWorker"

// stackSample is one CPU-profile sample: its call stack as function names,
// innermost frame first, and the CPU time it stands for.
type stackSample struct {
	frames []string
	cpu    time.Duration
}

// attribution splits profiled CPU time by module.
type attribution struct {
	// self charges each sample to the innermost module frame on its stack.
	self map[string]time.Duration
	// incl charges each sample once to every module on its stack, so the
	// shares of modules that call one another overlap.
	incl map[string]time.Duration
	// gc is the time of samples taken in background GC workers.
	gc    time.Duration
	total time.Duration
}

// attribute charges every sample's CPU time to the modules on its stack.
func attribute(samples []stackSample) attribution {
	a := attribution{self: map[string]time.Duration{}, incl: map[string]time.Duration{}}
	for _, s := range samples {
		a.total += s.cpu
		if containsFrame(s.frames, gcWorker) {
			a.gc += s.cpu
			continue
		}
		seen := map[string]bool{}
		for _, f := range s.frames {
			m := moduleOf(f)
			if m == "" || seen[m] {
				continue
			}
			if len(seen) == 0 {
				a.self[m] += s.cpu
			}
			seen[m] = true
			a.incl[m] += s.cpu
		}
	}
	return a
}

func containsFrame(frames []string, name string) bool {
	for _, f := range frames {
		if f == name {
			return true
		}
	}
	return false
}

// moduleOf returns the module a function belongs to ("utxo" for
// "bitcoinng/internal/utxo.(*Set).RedoBlock"), or "" outside the program.
func moduleOf(fn string) string {
	rest, ok := strings.CutPrefix(fn, modulePrefix)
	if !ok {
		return ""
	}
	if i := strings.IndexAny(rest, "./"); i >= 0 {
		rest = rest[:i]
	}
	return rest
}

var errProto = errors.New("malformed profile")

// parseProfile decodes a gzipped CPU profile as runtime/pprof writes it
// (the profile.proto format) into stack samples. It reads only the fields
// attribution needs: sample types, samples, locations, functions and the
// string table.
func parseProfile(gz []byte) ([]stackSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	data, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type rawSample struct {
		locs   []uint64
		values []uint64
	}
	var (
		strs      []string
		typeNames []uint64 // string index of each sample type's name
		raws      []rawSample
		funcName  = map[uint64]uint64{}   // function id -> string index
		locFuncs  = map[uint64][]uint64{} // location id -> function ids, innermost first
	)
	err = fields(data, func(num int, v uint64, b []byte) error {
		switch num {
		case 1: // sample_type
			return fields(b, func(n int, v uint64, _ []byte) error {
				if n == 1 {
					typeNames = append(typeNames, v)
				}
				return nil
			})
		case 2: // sample
			var s rawSample
			err := fields(b, func(n int, v uint64, b []byte) error {
				var err error
				switch n {
				case 1:
					s.locs, err = appendVarints(s.locs, v, b)
				case 2:
					s.values, err = appendVarints(s.values, v, b)
				}
				return err
			})
			raws = append(raws, s)
			return err
		case 4: // location
			var id uint64
			var funcs []uint64
			err := fields(b, func(n int, v uint64, b []byte) error {
				switch n {
				case 1:
					id = v
				case 4: // line: function_id is field 1
					return fields(b, func(n int, v uint64, _ []byte) error {
						if n == 1 {
							funcs = append(funcs, v)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = funcs
			return err
		case 5: // function
			var id, name uint64
			err := fields(b, func(n int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					name = v
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
		return nil, fmt.Errorf("profile: %w", err)
	}
	str := func(i uint64) string {
		if i < uint64(len(strs)) {
			return strs[i]
		}
		return ""
	}
	cpuIdx := len(typeNames) - 1
	for i, t := range typeNames {
		if str(t) == "cpu" {
			cpuIdx = i
		}
	}
	samples := make([]stackSample, 0, len(raws))
	for _, r := range raws {
		if cpuIdx < 0 || cpuIdx >= len(r.values) {
			return nil, fmt.Errorf("profile: sample without a cpu value: %w", errProto)
		}
		s := stackSample{cpu: time.Duration(r.values[cpuIdx])}
		for _, loc := range r.locs {
			for _, fn := range locFuncs[loc] {
				s.frames = append(s.frames, str(funcName[fn]))
			}
		}
		samples = append(samples, s)
	}
	return samples, nil
}

// fields calls fn for each field of a protobuf message: a varint field
// passes its value in v (and a nil b), a length-delimited field its bytes
// in b. Fixed-width fields are skipped.
func fields(msg []byte, fn func(num int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return errProto
		}
		msg = msg[n:]
		num := int(key >> 3)
		switch key & 7 {
		case 0:
			v, n := binary.Uvarint(msg)
			if n <= 0 {
				return errProto
			}
			msg = msg[n:]
			if err := fn(num, v, nil); err != nil {
				return err
			}
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || l > uint64(len(msg)-n) {
				return errProto
			}
			b := msg[n : n+int(l) : n+int(l)]
			msg = msg[n+int(l):]
			if err := fn(num, 0, b); err != nil {
				return err
			}
		case 1:
			if len(msg) < 8 {
				return errProto
			}
			msg = msg[8:]
		case 5:
			if len(msg) < 4 {
				return errProto
			}
			msg = msg[4:]
		default:
			return errProto
		}
	}
	return nil
}

// appendVarints decodes one occurrence of a repeated varint field, which
// runtime/pprof writes either packed (b holds the values) or one value per
// field (b is nil).
func appendVarints(dst []uint64, v uint64, b []byte) ([]uint64, error) {
	if b == nil {
		return append(dst, v), nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return dst, errProto
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst, nil
}
