package bench

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// Baseline is one pinned BENCH_*.json file: how to measure it and how to
// check the bytes of one. Timings are deterministic, so a regenerated file
// that differs from the checked-in one is a real behaviour change.
type Baseline struct {
	Name string // the word after `offloadbench snap`
	File string // file name at the repo root
	// Measure runs the family's default configuration, sweeping with env,
	// and returns its snapshot struct; notes beside it (the scale
	// footprint) go to notes.
	Measure func(env SweepEnv, notes io.Writer) any
	// Check decodes data and runs the family's Validate (schema plus
	// headline claims); dir is where sibling baselines are looked up. The
	// summary is the one-line description printed after a regeneration.
	Check func(data []byte, dir string) (summary string, err error)
	// Slow marks a row whose Measure takes minutes of wall clock: `snap
	// all` and the in-test regeneration skip it.
	Slow bool
}

// Baselines lists every pinned file. fig13 comes before fleet, whose Check
// reads it.
var Baselines = []Baseline{
	{
		Name: "fig13", File: "BENCH_fig13.json",
		Measure: func(env SweepEnv, _ io.Writer) any { return Fig13Snapshot(env) },
		Check: checker(func(s BenchSnapshot) string {
			return fmt.Sprintf("%d series, %d counter series", len(s.Series), len(s.Metrics.Counters))
		}),
	},
	{
		Name: "tenants", File: "BENCH_tenants.json",
		Measure: func(env SweepEnv, _ io.Writer) any { return MeasureTenants(env) },
		Check: checker(func(s TenantsSnapshot) string {
			return fmt.Sprintf("%d points, crossover verified, %d counter series", len(s.Series), len(s.Metrics.Counters))
		}),
	},
	{
		Name: "drift", File: "BENCH_drift.json",
		Measure: func(env SweepEnv, _ io.Writer) any { return MeasureDrift(env) },
		Check: checker(func(s DriftSnapshot) string {
			return fmt.Sprintf("%d points, re-route verified, %d counter series", len(s.Series), len(s.Metrics.Counters))
		}),
	},
	{
		Name: "scale", File: "BENCH_scale.json", Slow: true,
		Measure: func(env SweepEnv, notes io.Writer) any {
			snap, fp := MeasureScale(env, DefaultScaleConfig())
			fmt.Fprintln(notes, fp)
			return snap
		},
		Check: checker(func(s ScaleSnapshot) string {
			return fmt.Sprintf("%d rank counts up to %d, claims validated", len(s.Series), s.Series[len(s.Series)-1].Ranks)
		}),
	},
	{
		Name: "fleet", File: "BENCH_fleet.json",
		Measure: func(env SweepEnv, _ io.Writer) any { return MeasureFleet(env) },
		Check: func(data []byte, dir string) (string, error) {
			s, err := loadFleet(data, dir)
			if err != nil {
				return "", err
			}
			return fmt.Sprintf("%d policies on %s, homogeneous bf2 == fig13, crossover verified, %d counter series",
				len(s.Mixed), s.Fleet, len(s.Metrics.Counters)), nil
		},
	},
}

// FindBaseline returns the row called name.
func FindBaseline(name string) (Baseline, bool) {
	for _, b := range Baselines {
		if b.Name == name {
			return b, true
		}
	}
	return Baseline{}, false
}

// Write encodes snap (a value of the family's snapshot type), runs Check on
// the encoded bytes — so what lands on disk is exactly what was validated,
// round trip included — and writes them to path.
func (b Baseline) Write(path string, snap any) (summary string, err error) {
	data, err := encode(snap)
	if err != nil {
		return "", err
	}
	if summary, err = b.Check(data, filepath.Dir(path)); err != nil {
		return "", err
	}
	return summary, os.WriteFile(path, data, 0o666)
}

// CheckFile runs Check on the file at path without measuring anything.
func (b Baseline) CheckFile(path string) (summary string, err error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return "", err
	}
	return b.Check(data, filepath.Dir(path))
}

// encode renders a snapshot the way every BENCH_*.json is stored: indented
// JSON with a trailing newline.
func encode(v any) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// parse decodes and validates a JSON snapshot (the inverse of encode).
func parse[T interface{ Validate() error }](data []byte) (T, error) {
	var s T
	if err := json.Unmarshal(data, &s); err != nil {
		return s, fmt.Errorf("bench: invalid snapshot JSON: %w", err)
	}
	return s, s.Validate()
}

// checker builds the Check of a family whose Validate needs no sibling.
func checker[T interface{ Validate() error }](summary func(T) string) func([]byte, string) (string, error) {
	return func(data []byte, _ string) (string, error) {
		s, err := parse[T](data)
		if err != nil {
			return "", err
		}
		return summary(s), nil
	}
}

// WriteFile creates path, hands it to write, and closes it, reporting the
// first error of the three.
func WriteFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Timings is the OMB overlap measurement every snapshot point records. It
// is embedded, so its fields appear inline in the point's JSON object.
type Timings struct {
	PureNS     int64   `json:"pure_ns"`
	ComputeNS  int64   `json:"compute_ns"`
	OverallNS  int64   `json:"overall_ns"`
	OverlapPct float64 `json:"overlap_pct"`
}

func timingsOf(r NBCResult) Timings {
	return Timings{
		PureNS:     int64(r.PureComm),
		ComputeNS:  int64(r.Compute),
		OverallNS:  int64(r.Overall),
		OverlapPct: r.Overlap,
	}
}

// plausible rejects timings no run can produce.
func (t Timings) plausible() error {
	if t.PureNS <= 0 || t.OverallNS <= 0 || t.ComputeNS < 0 {
		return fmt.Errorf("non-positive timings %+v", t)
	}
	if t.OverlapPct < 0 || t.OverlapPct > 100 {
		return fmt.Errorf("overlap %g out of range", t.OverlapPct)
	}
	return nil
}
