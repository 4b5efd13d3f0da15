package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// benchSpec is the part of BENCHMARK.json the compare helper reads.
type benchSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// loadRecords reads every untraced run record (*.json) under dir, grouped
// by workload.
func loadRecords(dir string) (map[string][]*record, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, err
	}
	out := map[string][]*record{}
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var r record
		if err := json.Unmarshal(data, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		if r.Workload == "" || r.Trace != 0 {
			continue
		}
		out[r.Workload] = append(out[r.Workload], &r)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no untraced run records in %s", dir)
	}
	return out, nil
}

// quartiles returns Q1, median and Q3 the way Python's
// statistics.quantiles(values, n=4) (exclusive method) and
// statistics.median compute them.
func quartiles(values []float64) (q1, med, q3 float64) {
	v := append([]float64(nil), values...)
	sort.Float64s(v)
	n := len(v)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return v[0], v[0], v[0]
	}
	if n%2 == 1 {
		med = v[n/2]
	} else {
		med = (v[n/2-1] + v[n/2]) / 2
	}
	q := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (v[j-1]*(4-delta) + v[j]*delta) / 4
	}
	return q(1), med, q(3)
}

// runCompare prints, for every workload and end-to-end metric, both sides'
// median and quartiles, each side's spread (IQR over median), and whether
// the medians agree within the metric's bound from BENCHMARK.json.
func runCompare(w io.Writer, dirA, dirB, specPath string) error {
	data, err := os.ReadFile(specPath)
	if err != nil {
		return err
	}
	var spec benchSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		return fmt.Errorf("%s: %w", specPath, err)
	}
	a, err := loadRecords(dirA)
	if err != nil {
		return err
	}
	b, err := loadRecords(dirB)
	if err != nil {
		return err
	}
	var names []string
	for k := range a {
		if _, ok := b[k]; ok {
			names = append(names, k)
		}
	}
	sort.Strings(names)
	if len(names) == 0 {
		return fmt.Errorf("no workload has records on both sides")
	}
	worse := 0
	for _, wl := range names {
		fmt.Fprintf(w, "%s (A: %d runs, B: %d runs)\n", wl, len(a[wl]), len(b[wl]))
		fmt.Fprintf(w, "  %-22s %-6s %30s %30s %8s %6s  %s\n", "metric", "unit", "A median [q1, q3] spread", "B median [q1, q3] spread", "B vs A", "bound", "verdict")
		for _, m := range spec.EndToEnd {
			va, vb := metricValues(a[wl], m.Name), metricValues(b[wl], m.Name)
			if len(va) == 0 || len(vb) == 0 {
				fmt.Fprintf(w, "  %-22s %-6s missing\n", m.Name, m.Unit)
				continue
			}
			a1, am, a3 := quartiles(va)
			b1, bm, b3 := quartiles(vb)
			change := (bm - am) / am
			if m.Better == "higher" {
				change = -change // positive = worse
			}
			verdict := "agree"
			switch {
			case change > m.Bound:
				verdict = "WORSE"
				worse++
			case change < -m.Bound:
				verdict = "better"
			}
			spreadA, spreadB := (a3-a1)/am, (b3-b1)/bm
			if m.Name != "setup_s" && (spreadA > m.Bound || spreadB > m.Bound) {
				verdict += " (unresolved: spread above bound)"
			}
			fmt.Fprintf(w, "  %-22s %-6s %30s %30s %+7.1f%% %5.0f%%  %s\n", m.Name, m.Unit,
				fmt.Sprintf("%.4g [%.4g, %.4g] %.1f%%", am, a1, a3, 100*spreadA),
				fmt.Sprintf("%.4g [%.4g, %.4g] %.1f%%", bm, b1, b3, 100*spreadB),
				100*change, 100*m.Bound, verdict)
		}
	}
	fmt.Fprintf(w, "%d metric(s) worse than their bound (B vs A; positive change = worse)\n", worse)
	if missing := onlyOneSide(a, b); missing != "" {
		fmt.Fprintf(w, "workloads on one side only: %s\n", missing)
	}
	return nil
}

func metricValues(recs []*record, name string) []float64 {
	var out []float64
	for _, r := range recs {
		if m, ok := r.Metrics[name]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}

func onlyOneSide(a, b map[string][]*record) string {
	var out []string
	for k := range a {
		if _, ok := b[k]; !ok {
			out = append(out, k+" (A)")
		}
	}
	for k := range b {
		if _, ok := a[k]; !ok {
			out = append(out, k+" (B)")
		}
	}
	sort.Strings(out)
	return strings.Join(out, ", ")
}
