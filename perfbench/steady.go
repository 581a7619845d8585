package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
)

// steadyCheck runs a workload (or "all") n times, each in a fresh process
// with seeds seed, seed+1, ..., then reruns the first seed once. For each
// metric it prints the median, the quartiles as Python's
// statistics.quantiles(values, n=4) gives them, the interquartile spread as
// a share of the median, and the largest deviation from the median. It
// fails when a run fails, when runs report different metric sets, or when
// the rerun's virtual-time metrics and counts differ from the first run's.
func steadyCheck(name string, seed int64, seconds, trace, n int) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	names := []string{name}
	if name == "all" {
		names = names[:0]
		for wl := range workloads {
			names = append(names, wl)
		}
		sort.Strings(names)
	}
	summary := map[string]map[string]spread{}
	code := 0
	for _, wl := range names {
		if _, ok := workloads[wl]; !ok {
			fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", wl)
			return 2
		}
		var runs []*result
		for i := 0; i <= n; i++ {
			s := seed + int64(i)
			if i == n {
				s = seed // the rerun
			}
			r, err := runChild(exe, wl, s, seconds, trace)
			if err != nil {
				fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: %v\n", wl, s, err)
				return 1
			}
			runs = append(runs, r)
		}
		if msg := compareRuns(runs[:n], runs[n]); msg != "" {
			fmt.Printf("%s: %s\n", wl, msg)
			code = 1
		}
		summary[wl] = spreads(runs[:n])
		fmt.Printf("%s (%d runs, seeds %d..%d, trace %d)\n", wl, n, seed, seed+int64(n)-1, trace)
		fmt.Printf("  %-32s %14s %14s %14s %9s %9s\n", "metric", "q1", "median", "q3", "iqr/med", "maxdev")
		for _, k := range sortedKeys(summary[wl]) {
			s := summary[wl][k]
			fmt.Printf("  %-32s %14.6g %14.6g %14.6g %9.4f %9.4f\n", k, s.Q1, s.Median, s.Q3, s.IQRShare, s.MaxDevShare)
		}
	}
	b, _ := json.Marshal(summary)
	fmt.Println(string(b))
	return code
}

// spread summarises one metric over the runs.
type spread struct {
	Median      float64 `json:"median"`
	Q1          float64 `json:"q1"`
	Q3          float64 `json:"q3"`
	IQRShare    float64 `json:"iqr_share"`
	MaxDevShare float64 `json:"max_dev_share"`
}

func spreads(runs []*result) map[string]spread {
	out := map[string]spread{}
	for k := range runs[0].Metrics {
		vals := make([]float64, len(runs))
		for i, r := range runs {
			vals[i] = r.Metrics[k].Value
		}
		q := quartiles(vals)
		s := spread{Median: q[1], Q1: q[0], Q3: q[2]}
		var dev float64
		for _, v := range vals {
			dev = math.Max(dev, math.Abs(v-q[1]))
		}
		if q[1] != 0 {
			s.IQRShare, s.MaxDevShare = (q[2]-q[0])/math.Abs(q[1]), dev/math.Abs(q[1])
		}
		out[k] = s
	}
	return out
}

// quartiles matches Python's statistics.quantiles(data, n=4) with the
// default exclusive method.
func quartiles(data []float64) [3]float64 {
	d := append([]float64(nil), data...)
	sort.Float64s(d)
	ld := len(d)
	var q [3]float64
	if ld == 1 {
		return [3]float64{d[0], d[0], d[0]}
	}
	m := ld + 1
	for i := 1; i <= 3; i++ {
		j := min(max(i*m/4, 1), ld-1)
		delta := float64(i*m - j*4)
		q[i-1] = (d[j-1]*(4-delta) + d[j]*delta) / 4
	}
	return q
}

// deterministic reports whether a metric must repeat exactly for one
// seed: virtual-time metrics, counts and ratios of counts.
func deterministic(k string, m metric) bool {
	switch m.Unit {
	case "virt_ms", "count", "ratio":
		return true
	}
	return k == "table4_err_pct"
}

// compareRuns checks that every run reports one metric set and that the
// rerun of the first seed repeats its deterministic metrics exactly.
func compareRuns(runs []*result, rerun *result) string {
	first := runs[0]
	for _, r := range runs {
		if len(r.Metrics) != len(first.Metrics) {
			return "runs report different metric sets"
		}
		for k := range first.Metrics {
			if _, ok := r.Metrics[k]; !ok {
				return "runs report different metric sets: " + k
			}
		}
	}
	var diff []string
	for k, m := range first.Metrics {
		if deterministic(k, m) && rerun.Metrics[k].Value != m.Value {
			diff = append(diff, fmt.Sprintf("%s %v != %v", k, m.Value, rerun.Metrics[k].Value))
		}
	}
	if first.Attempted != rerun.Attempted || first.Failed != rerun.Failed {
		diff = append(diff, "attempted/failed")
	}
	sort.Strings(diff)
	if len(diff) > 0 {
		return "rerun of the first seed differs: " + strings.Join(diff, "; ")
	}
	return ""
}

// runChild runs one workload in a fresh process and parses its result line.
func runChild(exe, name string, seed int64, seconds, trace int) (*result, error) {
	cmd := exec.Command(exe, "--workload", name, "--seed", strconv.FormatInt(seed, 10),
		"--seconds", strconv.Itoa(seconds), "--trace", strconv.Itoa(trace))
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, err
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var r result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		return nil, fmt.Errorf("parsing result: %w", err)
	}
	if !r.Correct || r.Failed > 0 {
		return nil, fmt.Errorf("run reported correct=%v failed=%d", r.Correct, r.Failed)
	}
	return &r, nil
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
