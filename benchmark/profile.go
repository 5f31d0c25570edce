package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"fmt"
	"io"
	"regexp"
	"strings"
)

// cpuLayers are the simulator layers a CPU sample can be charged to: the
// internal/ package names the issue lists, then the Go runtime's two
// buckets, then everything that drives the simulator from outside.
var cpuLayers = []string{
	"sim", "fabric", "verbs", "gvmi", "regcache", "mem", "core", "datapath",
	"mpi", "coll", "policy", "tenant", "pattern", "metrics", "span", "telemetry",
	"go.sched", "go.gc", "harness",
}

const internalPrefix = "repro/internal/"

// Inclusive cuts are keyed only on Go runtime symbols, so they stay
// comparable across refactors of our own packages. They may overlap layers.
var (
	handoffRE = regexp.MustCompile(`^runtime\.(chansend|chanrecv|gopark|goready|schedule|findRunnable)`)
	allocRE   = regexp.MustCompile(`^runtime\.mallocgc`)
	mapRE     = regexp.MustCompile(`^(runtime\.map|internal/runtime/maps\.)`)
	gcRE      = regexp.MustCompile(`^runtime\.(gc|bgsweep|bgscavenge)`)
)

// stackSample is one profile sample: function names leaf first, and the
// sample's weight.
type stackSample struct {
	Stack []string
	Value int64
}

// profileCut is a reduced CPU profile: sample weight per owning layer (one
// cause per sample, so they sum to Total) and per inclusive cut.
type profileCut struct {
	Total   int64            `json:"total"`
	ByLayer map[string]int64 `json:"by_layer"`
	Handoff int64            `json:"handoff"`
	Alloc   int64            `json:"alloc"`
	Map     int64            `json:"map"`
}

// ownerOf applies the attribution rule: walking leaf to root, the first
// frame in one of our packages owns the sample — a listed internal package
// under its own name, any other repo package (bench, cluster, stencil, this
// harness) as "harness". A stack with no such frame is the Go runtime's:
// "go.gc" if it has a collector frame, else "go.sched".
func ownerOf(stack []string) string {
	gc := false
	for _, fn := range stack {
		switch {
		case strings.HasPrefix(fn, internalPrefix):
			pkg := fn[len(internalPrefix):]
			if i := strings.IndexAny(pkg, "./"); i >= 0 {
				pkg = pkg[:i]
			}
			for _, l := range cpuLayers {
				if l == pkg {
					return pkg
				}
			}
			return "harness"
		case strings.HasPrefix(fn, "main."):
			return "harness"
		case gcRE.MatchString(fn):
			gc = true
		}
	}
	if gc {
		return "go.gc"
	}
	return "go.sched"
}

func reduceProfile(samples []stackSample) profileCut {
	cut := profileCut{ByLayer: map[string]int64{}}
	for _, s := range samples {
		cut.Total += s.Value
		cut.ByLayer[ownerOf(s.Stack)] += s.Value
		var h, a, m bool
		for _, fn := range s.Stack {
			h = h || handoffRE.MatchString(fn)
			a = a || allocRE.MatchString(fn)
			m = m || mapRE.MatchString(fn)
		}
		if h {
			cut.Handoff += s.Value
		}
		if a {
			cut.Alloc += s.Value
		}
		if m {
			cut.Map += s.Value
		}
	}
	return cut
}

// add folds another cut into c (profiles of several child processes).
func (c *profileCut) add(o profileCut) {
	c.Total += o.Total
	c.Handoff += o.Handoff
	c.Alloc += o.Alloc
	c.Map += o.Map
	if c.ByLayer == nil {
		c.ByLayer = map[string]int64{}
	}
	for k, v := range o.ByLayer {
		c.ByLayer[k] += v
	}
}

func pct(part, total int64) float64 {
	if total == 0 {
		return 0
	}
	return 100 * float64(part) / float64(total)
}

// decodeProfile reads a gzipped pprof protobuf (what runtime/pprof writes)
// into stacks weighted by the last sample type (cpu nanoseconds). It
// decodes only the five messages the reduction needs; the wire format is
// profile.proto's, which the Go toolchain keeps stable.
func decodeProfile(gz []byte) ([]stackSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}

	type rawSample struct {
		locs   []uint64
		values []int64
	}
	var (
		samples []rawSample
		strs    []string
		funcs   = map[uint64]uint64{}   // function id → name string index
		locs    = map[uint64][]uint64{} // location id → function ids, innermost first
	)
	err = eachField(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 2: // Sample
			var s rawSample
			err := eachField(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					s.locs = appendPacked(s.locs, v, b)
				case 2:
					for _, u := range appendPacked(nil, v, b) {
						s.values = append(s.values, int64(u))
					}
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // Location
			var id uint64
			var fns []uint64
			err := eachField(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // Line
					return eachField(b, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locs[id] = fns
			return err
		case 5: // Function
			var id, name uint64
			err := eachField(b, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			funcs[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	out := make([]stackSample, 0, len(samples))
	for _, s := range samples {
		if len(s.values) == 0 {
			continue
		}
		st := stackSample{Value: s.values[len(s.values)-1]}
		for _, l := range s.locs {
			for _, fid := range locs[l] {
				if i := funcs[fid]; i < uint64(len(strs)) {
					st.Stack = append(st.Stack, strs[i])
				}
			}
		}
		out = append(out, st)
	}
	return out, nil
}

// eachField walks one protobuf message: f gets the field number and either
// the varint value (wire type 0) or the length-delimited bytes (wire type
// 2). Fixed-width fields are skipped.
func eachField(b []byte, f func(num int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return fmt.Errorf("profile: bad field key")
		}
		b = b[n:]
		num, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n := binary.Uvarint(b)
			if n <= 0 {
				return fmt.Errorf("profile: bad varint")
			}
			b = b[n:]
			if err := f(num, v, nil); err != nil {
				return err
			}
		case 1:
			if len(b) < 8 {
				return fmt.Errorf("profile: short fixed64")
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return fmt.Errorf("profile: bad length")
			}
			if err := f(num, 0, b[n:n+int(l)]); err != nil {
				return err
			}
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return fmt.Errorf("profile: short fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("profile: wire type %d", wire)
		}
	}
	return nil
}

// appendPacked appends a repeated varint field's values: one value when it
// arrived unpacked (b == nil), all of them when packed.
func appendPacked(dst []uint64, v uint64, b []byte) []uint64 {
	if b == nil {
		return append(dst, v)
	}
	for len(b) > 0 {
		u, n := binary.Uvarint(b)
		if n <= 0 {
			break
		}
		dst = append(dst, u)
		b = b[n:]
	}
	return dst
}
