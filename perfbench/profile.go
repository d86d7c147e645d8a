package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"path"
	"strings"
)

// cpuModules are the dvc/internal modules the traced run reports a
// <module>.cpu_pct row for. A sample is charged to the innermost
// dvc/internal frame on its stack; samples whose innermost dvc/internal
// frame is another module, or that have none, go to other.cpu_pct,
// except background GC workers, which get runtime.gc_bg_pct.
var cpuModules = []string{
	"sim", "partition", "netsim", "tcp", "guest", "mpi", "hpcc", "vm",
	"payload", "storage", "core", "phys", "clock", "obs", "experiments",
}

// Row names of samples no listed module claims.
const (
	rowGCBg  = "runtime.gc_bg_pct"
	rowOther = "other.cpu_pct"
)

// addCPU decodes a gzipped pprof CPU profile and adds each row's sampled
// CPU nanoseconds to cpu, keyed by metric name (<module>.cpu_pct,
// runtime.gc_bg_pct, other.cpu_pct).
func addCPU(cpu map[string]float64, gz []byte) error {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	p, err := decodeProfile(raw)
	if err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	known := make(map[string]bool, len(cpuModules))
	for _, m := range cpuModules {
		known[m] = true
	}
	for _, s := range p.samples {
		if len(s.values) > 0 {
			cpu[p.rowOf(s.locs, known)] += float64(s.values[len(s.values)-1]) // cpu nanoseconds
		}
	}
	return nil
}

// percentages turns addCPU's totals into every row's share of the sampled
// CPU time, in percent; the shares sum to 100.
func percentages(cpu map[string]float64) (map[string]float64, error) {
	shares := map[string]float64{rowGCBg: 0, rowOther: 0}
	for _, m := range cpuModules {
		shares[m+".cpu_pct"] = 0
	}
	var total float64
	for _, v := range cpu {
		total += v
	}
	if total == 0 {
		return nil, errors.New("cpu profile: no samples")
	}
	for k, v := range cpu {
		shares[k] = 100 * v / total
	}
	return shares, nil
}

type profSample struct {
	locs   []uint64
	values []int64
}

type profile struct {
	samples []profSample
	locFns  map[uint64][]uint64 // location id -> function ids, innermost first
	fnName  map[uint64]int64    // function id -> string table index
	strings []string
}

// rowOf names the row a stack (leaf first) is charged to.
func (p *profile) rowOf(locs []uint64, known map[string]bool) string {
	gcBg := false
	for _, l := range locs {
		for _, fn := range p.locFns[l] {
			name := p.str(p.fnName[fn])
			if rest, ok := strings.CutPrefix(name, "dvc/internal/"); ok {
				if dot := strings.IndexByte(rest, '.'); dot > 0 {
					if m := path.Base(rest[:dot]); known[m] {
						return m + ".cpu_pct"
					}
				}
				return rowOther
			}
			if name == "runtime.gcBgMarkWorker" {
				gcBg = true
			}
		}
	}
	if gcBg {
		return rowGCBg
	}
	return rowOther
}

func (p *profile) str(i int64) string {
	if i < 0 || int(i) >= len(p.strings) {
		return ""
	}
	return p.strings[i]
}

// decodeProfile reads the parts of a pprof protobuf (profile.proto) the
// attribution needs: samples, locations with their inlined lines,
// functions and the string table.
func decodeProfile(b []byte) (*profile, error) {
	p := &profile{locFns: map[uint64][]uint64{}, fnName: map[uint64]int64{}}
	err := eachField(b, func(field int, wire int, v uint64, msg []byte) error {
		switch field {
		case 2: // Sample
			var s profSample
			if err := eachField(msg, func(f, w int, v uint64, m []byte) error {
				switch f {
				case 1:
					return appendVarints(&s.locs, w, v, m)
				case 2:
					var vs []uint64
					if err := appendVarints(&vs, w, v, m); err != nil {
						return err
					}
					for _, x := range vs {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			}); err != nil {
				return err
			}
			p.samples = append(p.samples, s)
		case 4: // Location
			var id uint64
			var fns []uint64
			if err := eachField(msg, func(f, w int, v uint64, m []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // Line
					return eachField(m, func(f, w int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			}); err != nil {
				return err
			}
			p.locFns[id] = fns
		case 5: // Function
			var id uint64
			var name int64
			if err := eachField(msg, func(f, w int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			}); err != nil {
				return err
			}
			p.fnName[id] = name
		case 6: // string_table
			p.strings = append(p.strings, string(msg))
		}
		return nil
	})
	return p, err
}

// appendVarints appends a repeated varint field, packed or not.
func appendVarints(dst *[]uint64, wire int, v uint64, msg []byte) error {
	if wire == 0 {
		*dst = append(*dst, v)
		return nil
	}
	for len(msg) > 0 {
		x, n := binary.Uvarint(msg)
		if n <= 0 {
			return errors.New("bad packed varint")
		}
		*dst = append(*dst, x)
		msg = msg[n:]
	}
	return nil
}

// eachField walks a protobuf message, calling fn with each field's
// number and wire type, and its varint value or length-delimited bytes.
func eachField(b []byte, fn func(field, wire int, v uint64, msg []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("bad field key")
		}
		b = b[n:]
		field, wire := int(key>>3), int(key&7)
		var v uint64
		var msg []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errors.New("bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("short fixed64")
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("bad length")
			}
			msg = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("short fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := fn(field, wire, v, msg); err != nil {
			return err
		}
	}
	return nil
}
