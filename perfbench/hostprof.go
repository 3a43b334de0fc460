package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"runtime"
	"runtime/pprof"
	"strings"
)

// hostPackages are the simulator packages host cost is attributed to.
var hostPackages = []string{
	"sim", "servernet", "disk", "npmu", "pmclient", "stable", "cluster",
	"locks", "btree", "audit", "dp2", "adp", "tmf", "ods", "loadgen",
	"recovery", "metrics",
}

// packageOf names the package a stack is charged to: the deepest frame
// (scanning from the leaf outward) whose function lives in the
// persistmem module, so runtime work such as an allocation is charged to
// the simulator package that asked for it. Stacks with no persistmem
// frame are charged to "other".
func packageOf(funcsLeafFirst []string) string {
	for _, fn := range funcsLeafFirst {
		if rest, ok := strings.CutPrefix(fn, "persistmem/"); ok {
			rest = strings.TrimPrefix(rest, "internal/")
			if i := strings.IndexAny(rest, "./"); i >= 0 {
				rest = rest[:i]
			}
			return rest
		}
	}
	return "other"
}

// allocsByPackage reads the cumulative allocation profile and sums
// allocated objects per package. Two forced collections come first: the
// runtime publishes profile records up to two cycles late.
func allocsByPackage() map[string]int64 {
	runtime.GC()
	runtime.GC()
	n, _ := runtime.MemProfile(nil, true)
	recs := make([]runtime.MemProfileRecord, n+128)
	for {
		var ok bool
		n, ok = runtime.MemProfile(recs, true)
		if ok {
			recs = recs[:n]
			break
		}
		recs = make([]runtime.MemProfileRecord, 2*len(recs))
	}
	out := make(map[string]int64)
	for i := range recs {
		out[packageOf(stackFuncs(recs[i].Stack()))] += recs[i].AllocObjects
	}
	return out
}

func stackFuncs(pcs []uintptr) []string {
	var names []string
	frames := runtime.CallersFrames(pcs)
	for {
		f, more := frames.Next()
		names = append(names, f.Function)
		if !more {
			return names
		}
	}
}

// profileAllocs runs fn under an exact allocation profile
// (MemProfileRate=1) and returns the objects it allocated per package.
func profileAllocs(fn func()) map[string]int64 {
	old := runtime.MemProfileRate
	runtime.MemProfileRate = 1
	defer func() { runtime.MemProfileRate = old }()
	before := allocsByPackage()
	fn()
	after := allocsByPackage()
	for pkg, n := range before {
		after[pkg] -= n
	}
	return after
}

// cpuProfileHz is the CPU sampling rate: the default 100 Hz gives too
// few samples per iteration for stable shares.
const cpuProfileHz = 1000

// profileCPU runs fn under the CPU profiler and returns the sampled CPU
// time (ns) per package, read from the pprof protobuf the runtime
// writes.
func profileCPU(fn func()) (map[string]int64, error) {
	var buf bytes.Buffer
	// Raising the rate before StartCPUProfile makes the profiler keep it;
	// StartCPUProfile then notes on stderr that it could not set 100 Hz.
	runtime.SetCPUProfileRate(cpuProfileHz)
	if err := pprof.StartCPUProfile(&buf); err != nil {
		runtime.SetCPUProfileRate(0)
		return nil, fmt.Errorf("start CPU profile: %w", err)
	}
	fn()
	pprof.StopCPUProfile()
	return cpuByPackage(buf.Bytes())
}

// cpuByPackage decodes a gzipped pprof profile and sums each sample's
// last value (CPU nanoseconds in a CPU profile) per package.
func cpuByPackage(gz []byte) (map[string]int64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("CPU profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("CPU profile: %w", err)
	}
	p, err := decodeProfile(raw)
	if err != nil {
		return nil, fmt.Errorf("CPU profile: %w", err)
	}
	out := make(map[string]int64)
	for _, s := range p.samples {
		if len(s.values) == 0 {
			continue
		}
		var names []string
		for _, id := range s.locs {
			for _, fid := range p.locFuncs[id] {
				names = append(names, p.strings[p.funcName[fid]])
			}
		}
		out[packageOf(names)] += s.values[len(s.values)-1]
	}
	return out, nil
}

// profile is the part of a pprof profile.proto message attribution
// needs: samples with their location stacks (leaf first), each
// location's inlined functions (innermost first), function names, and
// the string table.
type profile struct {
	samples  []sample
	locFuncs map[uint64][]uint64
	funcName map[uint64]int64
	strings  []string
}

type sample struct {
	locs   []uint64
	values []int64
}

// profile.proto field numbers.
const (
	fProfileSample   = 2
	fProfileLocation = 4
	fProfileFunction = 5
	fProfileString   = 6

	fSampleLocation = 1
	fSampleValue    = 2

	fLocationID   = 1
	fLocationLine = 4
	fLineFunction = 1

	fFunctionID   = 1
	fFunctionName = 2
)

func decodeProfile(b []byte) (*profile, error) {
	p := &profile{locFuncs: map[uint64][]uint64{}, funcName: map[uint64]int64{}}
	err := eachField(b, func(num int, v uint64, data []byte) error {
		switch num {
		case fProfileSample:
			var s sample
			err := eachField(data, func(num int, v uint64, data []byte) error {
				switch num {
				case fSampleLocation:
					return appendVarints(&s.locs, v, data)
				case fSampleValue:
					var vs []uint64
					if err := appendVarints(&vs, v, data); err != nil {
						return err
					}
					for _, x := range vs {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case fProfileLocation:
			var id uint64
			var funcs []uint64
			err := eachField(data, func(num int, v uint64, data []byte) error {
				switch num {
				case fLocationID:
					id = v
				case fLocationLine:
					return eachField(data, func(num int, v uint64, _ []byte) error {
						if num == fLineFunction {
							funcs = append(funcs, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locFuncs[id] = funcs
			return err
		case fProfileFunction:
			var id uint64
			var name int64
			err := eachField(data, func(num int, v uint64, _ []byte) error {
				switch num {
				case fFunctionID:
					id = v
				case fFunctionName:
					name = int64(v)
				}
				return nil
			})
			p.funcName[id] = name
			return err
		case fProfileString:
			p.strings = append(p.strings, string(data))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for id, name := range p.funcName {
		if name < 0 || name >= int64(len(p.strings)) {
			return nil, fmt.Errorf("function %d names string %d of %d", id, name, len(p.strings))
		}
	}
	return p, nil
}

var errTruncated = errors.New("truncated protobuf")

// eachField walks a protobuf message, calling fn with each field's
// number and either its varint value or its length-delimited bytes.
// Fixed-width fields are skipped.
func eachField(b []byte, fn func(num int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		b = b[n:]
		num, wire := int(key>>3), key&7
		var v uint64
		var data []byte
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
			data, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errTruncated
			}
			b = b[4:]
			continue
		default:
			return fmt.Errorf("unsupported protobuf wire type %d", wire)
		}
		if err := fn(num, v, data); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated varint field's value: one varint
// (unpacked encoding) or a packed run of them.
func appendVarints(dst *[]uint64, v uint64, data []byte) error {
	if data == nil {
		*dst = append(*dst, v)
		return nil
	}
	for len(data) > 0 {
		x, n := binary.Uvarint(data)
		if n <= 0 {
			return errTruncated
		}
		*dst = append(*dst, x)
		data = data[n:]
	}
	return nil
}
