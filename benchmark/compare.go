package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"slices"
	"sort"
	"text/tabwriter"
)

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(values, n=4) does (the exclusive method), so spreads
// computed here and by the pipeline agree. It needs two values; with fewer
// the spread is zero.
func quartiles(values []float64) (q1, q3 float64) {
	d := append([]float64(nil), values...)
	sort.Float64s(d)
	ld := len(d)
	if ld < 2 {
		if ld == 1 {
			return d[0], d[0]
		}
		return 0, 0
	}
	q := func(i int) float64 {
		j := i * (ld + 1) / 4
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*(ld+1) - j*4 // after clamping, as Python does: it extrapolates at the ends
		return (d[j-1]*float64(4-delta) + d[j]*float64(delta)) / 4
	}
	return q(1), q(3)
}

// spread is the interquartile distance as a share of the median.
func spread(values []float64) float64 {
	m := median(values)
	if m == 0 {
		return 0
	}
	q1, q3 := quartiles(values)
	return (q3 - q1) / m
}

// series collects one side's values per (workload, metric), and each
// workload's simulated results and failure count.
type series struct {
	values map[[2]string][]float64
	virt   map[string]map[string]int64
	failed map[string]int
}

func loadSeries(path string) (series, error) {
	s := series{values: map[[2]string][]float64{}, virt: map[string]map[string]int64{}, failed: map[string]int{}}
	b, err := os.ReadFile(path)
	if err != nil {
		return s, err
	}
	var f resultFile
	if err := json.Unmarshal(b, &f); err != nil {
		return s, fmt.Errorf("%s: %w", path, err)
	}
	for _, r := range f.Runs {
		for name, m := range r.Metrics {
			k := [2]string{r.Workload, name}
			s.values[k] = append(s.values[k], m.Value)
		}
		if r.Seed == 1 && r.Virt != nil {
			s.virt[r.Workload] = r.Virt
		}
		s.failed[r.Workload] += r.Failed
	}
	return s, nil
}

// verdict applies one end-to-end metric's bound and direction: "worse" when
// B's median is beyond the bound, "unresolved" when either side's spread is
// wider than the bound and the two ranges overlap (the runs cannot tell),
// "ok" otherwise.
func verdict(d metricDef, a, b []float64) string {
	ma, mb := median(a), median(b)
	worse := mb > ma*(1+d.Bound)
	if d.Better == "higher" {
		worse = mb < ma*(1-d.Bound)
	}
	overlap := slices.Min(a) <= slices.Max(b) && slices.Min(b) <= slices.Max(a)
	switch {
	case (spread(a) > d.Bound || spread(b) > d.Bound) && overlap:
		return "unresolved"
	case worse:
		return "worse"
	}
	return "ok"
}

// compareFiles prints one row per (workload, metric) present in both files
// — both medians, the base (A), the ratio B/A and the verdict — and reports
// whether nothing is worse and everything that must be identical is.
func compareFiles(out io.Writer, pathA, pathB string) bool {
	a, err := loadSeries(pathA)
	if err != nil {
		fatal("%v", err)
	}
	b, err := loadSeries(pathB)
	if err != nil {
		fatal("%v", err)
	}
	good := true
	tw := tabwriter.NewWriter(out, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tA median\tB median\tbase\tB/A\tspread A\tspread B\tbound\tverdict")
	row := func(w string, d metricDef, v string, va, vb []float64) {
		ma, mb := median(va), median(vb)
		ratio := "-"
		if ma != 0 {
			ratio = fmt.Sprintf("%.4f", mb/ma)
		}
		bound := "-"
		if d.Bound > 0 {
			bound = fmt.Sprintf("%.2f", d.Bound)
		}
		fmt.Fprintf(tw, "%s\t%s\t%.6g\t%.6g\tA\t%s\t%.4f\t%.4f\t%s\t%s\n",
			w, d.Name, ma, mb, ratio, spread(va), spread(vb), bound, v)
	}
	for _, w := range workloads {
		for _, d := range endToEnd {
			va, vb := a.values[[2]string{w.Name, d.Name}], b.values[[2]string{w.Name, d.Name}]
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			v := verdict(d, va, vb)
			good = good && v != "worse"
			row(w.Name, d, v, va, vb)
		}
		for _, d := range perLayer {
			va, vb := a.values[[2]string{w.Name, d.Name}], b.values[[2]string{w.Name, d.Name}]
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			v := "-"
			if d.Exact {
				v = "identical"
				if median(va) != median(vb) {
					v, good = "differs", false
				}
			}
			row(w.Name, d, v, va, vb)
		}
		if va, vb := a.virt[w.Name], b.virt[w.Name]; va != nil && vb != nil {
			v := "identical"
			if !sameResults(va, vb) {
				v, good = "differs", false
			}
			fmt.Fprintf(tw, "%s\tsimulated results (seed 1)\t\t\t\t\t\t\t0\t%s\n", w.Name, v)
		}
		fa, fb := a.failed[w.Name], b.failed[w.Name]
		v := "ok"
		if fb > fa {
			v, good = "worse", false
		}
		fmt.Fprintf(tw, "%s\tfailed checks\t%d\t%d\tA\t-\t\t\t0\t%s\n", w.Name, fa, fb, v)
	}
	tw.Flush()
	return good
}
