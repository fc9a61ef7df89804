package main

// CPU shares by package, read from a runtime/pprof CPU profile. The
// profile is a gzipped profile.proto message; this file decodes just the
// fields it needs (samples, locations, functions, strings) with a
// minimal protobuf wire reader, so the benchmark stays stdlib-only and
// needs no `go tool pprof` at run time.

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"os"
	"runtime/metrics"
	"runtime/pprof"
	"sort"
	"strings"
)

// pbReader walks protobuf wire-format fields.
type pbReader struct {
	b []byte
}

var errTruncated = errors.New("profile: truncated protobuf")

func (r *pbReader) varint() (uint64, error) {
	var x uint64
	for shift := uint(0); shift < 64; shift += 7 {
		if len(r.b) == 0 {
			return 0, errTruncated
		}
		c := r.b[0]
		r.b = r.b[1:]
		x |= uint64(c&0x7f) << shift
		if c < 0x80 {
			return x, nil
		}
	}
	return 0, errors.New("profile: varint overflow")
}

// field reads the next field: its number, wire type, varint value (wire
// type 0) or payload (wire type 2).
func (r *pbReader) field() (num int, wire int, v uint64, payload []byte, err error) {
	key, err := r.varint()
	if err != nil {
		return 0, 0, 0, nil, err
	}
	num, wire = int(key>>3), int(key&7)
	switch wire {
	case 0:
		v, err = r.varint()
	case 1:
		if len(r.b) < 8 {
			return 0, 0, 0, nil, errTruncated
		}
		r.b = r.b[8:]
	case 2:
		n, err2 := r.varint()
		if err2 != nil {
			return 0, 0, 0, nil, err2
		}
		if uint64(len(r.b)) < n {
			return 0, 0, 0, nil, errTruncated
		}
		payload, r.b = r.b[:n], r.b[n:]
	case 5:
		if len(r.b) < 4 {
			return 0, 0, 0, nil, errTruncated
		}
		r.b = r.b[4:]
	default:
		err = fmt.Errorf("profile: unsupported wire type %d", wire)
	}
	return num, wire, v, payload, err
}

// ints decodes a repeated integer field, packed or not.
func ints(wire int, v uint64, payload []byte, into []uint64) ([]uint64, error) {
	if wire == 0 {
		return append(into, v), nil
	}
	r := pbReader{payload}
	for len(r.b) > 0 {
		x, err := r.varint()
		if err != nil {
			return nil, err
		}
		into = append(into, x)
	}
	return into, nil
}

// packageCPU returns the CPU time of a profile by the package of the
// innermost function of each sample (self time), in the profile's value
// units, and the total.
func packageCPU(gz []byte) (map[string]int64, int64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, 0, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, 0, err
	}
	type sample struct {
		locs   []uint64
		values []uint64
	}
	var (
		samples  []sample
		locFunc  = map[uint64]uint64{} // location -> innermost function
		funcName = map[uint64]int64{}  // function -> string index
		strs     []string
	)
	r := pbReader{raw}
	for len(r.b) > 0 {
		num, _, _, payload, err := r.field()
		if err != nil {
			return nil, 0, err
		}
		switch num {
		case 2: // Sample
			var s sample
			sr := pbReader{payload}
			for len(sr.b) > 0 {
				n, w, sv, sp, err := sr.field()
				if err != nil {
					return nil, 0, err
				}
				switch n {
				case 1:
					s.locs, err = ints(w, sv, sp, s.locs)
				case 2:
					s.values, err = ints(w, sv, sp, s.values)
				}
				if err != nil {
					return nil, 0, err
				}
			}
			samples = append(samples, s)
		case 4: // Location
			var id, fn uint64
			haveLine := false
			lr := pbReader{payload}
			for len(lr.b) > 0 {
				n, _, lv, lp, err := lr.field()
				if err != nil {
					return nil, 0, err
				}
				switch {
				case n == 1:
					id = lv
				case n == 4 && !haveLine:
					// The first Line is the innermost inlined frame.
					haveLine = true
					ln := pbReader{lp}
					for len(ln.b) > 0 {
						m, _, x, _, err := ln.field()
						if err != nil {
							return nil, 0, err
						}
						if m == 1 {
							fn = x
						}
					}
				}
			}
			locFunc[id] = fn
		case 5: // Function
			var id uint64
			var name int64
			fr := pbReader{payload}
			for len(fr.b) > 0 {
				n, _, fv, _, err := fr.field()
				if err != nil {
					return nil, 0, err
				}
				switch n {
				case 1:
					id = fv
				case 2:
					name = int64(fv)
				}
			}
			funcName[id] = name
		case 6: // string_table
			strs = append(strs, string(payload))
		}
	}
	byPkg := map[string]int64{}
	var total int64
	for _, s := range samples {
		if len(s.values) == 0 {
			continue
		}
		// CPU profiles carry [samples/count, cpu/nanoseconds].
		val := int64(s.values[len(s.values)-1])
		total += val
		pkg := "unknown"
		if len(s.locs) > 0 {
			if si := funcName[locFunc[s.locs[0]]]; si > 0 && si < int64(len(strs)) {
				pkg = funcPackage(strs[si])
			}
		}
		byPkg[pkg] += val
	}
	return byPkg, total, nil
}

// funcPackage maps a Go symbol name to its package import path, folding
// the runtime's internal packages into "runtime":
//
//	ninjagap/internal/exec.(*threadCtx).loop -> ninjagap/internal/exec
//	runtime.mallocgc                        -> runtime
//	internal/runtime/atomic.(*Uint32).Load  -> runtime
func funcPackage(name string) string {
	if i := strings.IndexByte(name, '['); i >= 0 {
		name = name[:i] // type arguments may hold other packages' paths
	}
	slash := strings.LastIndexByte(name, '/')
	dot := strings.IndexByte(name[slash+1:], '.')
	pkg := name
	if dot >= 0 {
		pkg = name[:slash+1+dot]
	}
	// Names without a package are the runtime's assembly routines
	// (memeqbody, aeshashbody).
	if dot < 0 || pkg == "runtime" || strings.HasPrefix(pkg, "runtime/internal/") || strings.HasPrefix(pkg, "internal/runtime/") {
		return "runtime"
	}
	return pkg
}

// profiler takes the traced phases' CPU profiles and Go runtime
// statistics. Phases accumulate: start and stop bracket each one.
type profiler struct {
	buf      bytes.Buffer
	profiles [][]byte
	byPkg    map[string]int64
	total    int64
	rt0      [3]float64
	gcCPU    float64
	cpu      float64
	alloc    float64
}

// runtimeStats are the runtime/metrics the profiler differences: GC CPU
// time, total CPU time, and bytes allocated.
var runtimeStats = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/gc/heap/allocs:bytes",
}

func readRuntime() [3]float64 {
	s := make([]metrics.Sample, len(runtimeStats))
	for i, name := range runtimeStats {
		s[i].Name = name
	}
	metrics.Read(s)
	var out [3]float64
	for i := range s {
		switch s[i].Value.Kind() {
		case metrics.KindFloat64:
			out[i] = s[i].Value.Float64()
		case metrics.KindUint64:
			out[i] = float64(s[i].Value.Uint64())
		}
	}
	return out
}

func (p *profiler) start() error {
	p.buf.Reset()
	p.rt0 = readRuntime()
	return pprof.StartCPUProfile(&p.buf)
}

func (p *profiler) stop() error {
	pprof.StopCPUProfile()
	rt := readRuntime()
	p.gcCPU += rt[0] - p.rt0[0]
	p.cpu += rt[1] - p.rt0[1]
	p.alloc += rt[2] - p.rt0[2]
	raw := append([]byte(nil), p.buf.Bytes()...)
	p.profiles = append(p.profiles, raw)
	byPkg, total, err := packageCPU(raw)
	if err != nil {
		return err
	}
	if p.byPkg == nil {
		p.byPkg = map[string]int64{}
	}
	for k, v := range byPkg {
		p.byPkg[k] += v
	}
	p.total += total
	return nil
}

// report sets the per-package CPU shares and runtime metrics (allocation
// per unit of work: pass or request) and writes the profiles and a
// share listing next to the span file.
func (p *profiler) report(rep *report, o options, units int) error {
	if p.cpu > 0 {
		rep.set("runtime.gc_cpu_frac", "ratio", p.gcCPU/p.cpu, units)
	}
	if units > 0 {
		rep.set("runtime.alloc_mb", "MB", p.alloc/float64(units)/(1<<20), units)
	}
	type share struct {
		pkg string
		v   int64
	}
	var shares []share
	for pkg, v := range p.byPkg {
		shares = append(shares, share{pkg, v})
	}
	sort.Slice(shares, func(i, j int) bool { return shares[i].v > shares[j].v })
	var sb strings.Builder
	fmt.Fprintf(&sb, "# self CPU by package over the traced phases (%.3g s of CPU)\n", float64(p.total)/1e9)
	for _, s := range shares {
		frac := float64(s.v) / float64(p.total)
		fmt.Fprintf(&sb, "%8.4f  %s\n", frac, s.pkg)
		if s.pkg == "runtime" || strings.HasPrefix(s.pkg, "ninjagap/internal/") {
			// The profiler samples at 100 Hz: one sample per 10 ms of CPU.
			rep.set(shortPkg(s.pkg)+".cpu_share", "ratio", frac, int(p.total/1e7))
		}
	}
	if err := os.WriteFile(traceFile(o, "cpu-by-package.txt"), []byte(sb.String()), 0o644); err != nil {
		return err
	}
	for i, raw := range p.profiles {
		if err := os.WriteFile(traceFile(o, fmt.Sprintf("cpu-%d.pprof", i+1)), raw, 0o644); err != nil {
			return err
		}
	}
	return nil
}
