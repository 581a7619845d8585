// Command perfbench is the repository's benchmark. It builds a simulated
// µPnP deployment, drives one named workload through the public SDK (or
// the HTTP gateway), checks every result, and prints the metrics as one
// JSON object on the last line of standard output.
//
//	perfbench --workload http-rw --seed 1 --seconds 10 --trace 0
//
// --trace 0 prints the end-to-end metrics. --trace 1 runs the workload
// twice, untraced and then traced with in-memory spans and a CPU profile,
// prints the per-layer metrics and writes spans and per-package CPU shares
// to .bench_build/trace-<workload>-<seed>.json. --steady N runs the
// workload N times in fresh processes and prints each metric's spread
// (steady.go). Run it through run.sh, which builds it first.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"time"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// workload is one named benchmark workload. build makes a fresh deployment
// and runs it through plug-in drain and warm-up (the timed set-up); measure
// runs the seeded operation sequence sized by the run length. windows, when
// set, is how many times a run of that length measures the sequence, each
// time on a fresh deployment.
type workload struct {
	setups  int // set-ups per run; setup_s is their median
	build   func(seed int64, tr *tracer) (*world, error)
	measure func(w *world, seed int64, seconds int) (*outcome, error)
	windows func(seconds int) int
}

var workloads = map[string]workload{
	// Every workload runs on one processor (zoned-churn with one shard
	// worker, whose schedule is bit-identical to a parallel one): on a
	// shared VM a second processor mostly added time stolen by the host,
	// and identical runs then differed by up to a sixth in throughput.
	"http-rw":     {setups: 5, build: buildHTTP, measure: measureHTTP},
	"zoned-churn": {setups: 5, build: buildChurn, measure: measureChurn, windows: churnWindowCount},
}

// referencePlugs is the number of Table 4 reference plug-ins per run.
const referencePlugs = 128

// outDir holds everything a run writes, relative to the checkout root.
const outDir = ".bench_build"

func main() {
	var (
		name    = flag.String("workload", "", "workload: http-rw | zoned-churn")
		seed    = flag.Int64("seed", 1, "workload seed")
		seconds = flag.Int("seconds", 10, "run length; sizes the measured operation count")
		trace   = flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
		steady  = flag.Int("steady", 0, "run the workload this many times in fresh processes and print each metric's spread")
	)
	flag.Parse()
	if *steady > 0 {
		os.Exit(steadyCheck(*name, *seed, *seconds, *trace, *steady))
	}
	wl, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload http-rw|zoned-churn, --seconds >= 1, --trace 0|1\n")
		os.Exit(2)
	}
	runtime.GOMAXPROCS(1)
	res, err := runWorkload(*name, wl, *seed, *seconds, *trace == 1)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		os.Exit(1)
	}
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(b))
	if !res.Correct {
		os.Exit(1)
	}
}

// runWorkload sets the workload up several times, keeping the last
// deployment, and measures it, once or in several windows. A traced run
// measures one more fresh deployment with tracing on and checks that both
// passes agree on every virtual-time metric and exact count.
func runWorkload(name string, wl workload, seed int64, seconds int, traced bool) (*result, error) {
	var (
		w      *world
		setups []float64
		prints []string
	)
	// setUp replaces the deployment with a fresh, timed one of the seed.
	setUp := func() error {
		w.close()
		w = nil
		runtime.GC()
		t0 := time.Now()
		var err error
		if w, err = wl.build(seed, nil); err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		prints = append(prints, w.setupPrint())
		return nil
	}
	defer func() { w.close() }()
	for i := 0; i < wl.setups; i++ {
		if err := setUp(); err != nil {
			return nil, err
		}
	}
	t4, err := referenceTable4(seed, referencePlugs, nil)
	if err != nil {
		return nil, err
	}
	windows := 1
	if wl.windows != nil {
		windows = wl.windows(seconds)
	}
	var outs []*outcome
	attempted, failed := 0, 0
	for i := 0; i < windows; i++ {
		if i > 0 {
			if err := setUp(); err != nil {
				return nil, err
			}
		}
		o, err := wl.measure(w, seed, seconds)
		if err != nil {
			return nil, err
		}
		o.table4 = t4
		o.finish(w)
		outs = append(outs, o)
		attempted, failed = attempted+o.attempted, failed+o.failed
	}
	correct := true
	for _, p := range prints[1:] {
		if p != prints[0] {
			fmt.Fprintf(os.Stderr, "perfbench: set-ups of one seed diverged:\n%s\n%s\n", prints[0], p)
			correct = false
		}
	}
	out, agree := mergeWindows(outs)
	correct = correct && agree
	if out.failed > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: failed operations: %s; bad stream readings: %d\n", out.failures(), out.streamBad)
	}
	if !traced {
		return &result{
			Correct:   correct && failed == 0,
			Attempted: attempted,
			Failed:    failed,
			Metrics:   out.endToEnd(median(setups)),
		}, nil
	}

	// Traced pass on a fresh deployment of the same seed.
	untraced := out
	w.close()
	w = nil
	runtime.GC()
	tr := newTracer()
	if w, err = wl.build(seed, tr); err != nil {
		return nil, fmt.Errorf("traced set-up: %w", err)
	}
	if t4, err = referenceTable4(seed, referencePlugs, tr); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	profPath := filepath.Join(outDir, fmt.Sprintf("cpu-%s-%d.pprof", name, seed))
	prof, err := os.Create(profPath)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(prof); err != nil {
		prof.Close()
		return nil, err
	}
	out, err = wl.measure(w, seed, seconds)
	pprof.StopCPUProfile()
	if cerr := prof.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	out.table4 = t4
	out.finish(w)
	if a, b := untraced.virtualPrint(), out.virtualPrint(); a != b {
		fmt.Fprintf(os.Stderr, "perfbench: traced and untraced passes diverged:\n%s\n%s\n", a, b)
		correct = false
	}
	cpu, err := cpuShares(profPath)
	if err != nil {
		return nil, err
	}
	layers, err := out.perLayer(w, cpu)
	if err != nil {
		return nil, err
	}
	layers["trace.overhead_pct"] = metric{(out.elapsed.Seconds()/untraced.elapsed.Seconds() - 1) * 100, "%"}
	// The wall p99 swings too much from run to run to gate on, so the
	// untraced pass's figure is reported here instead of end to end.
	layers["op_wall_p99_us"] = metric{untraced.wallP99, "us"}
	tf := &traceFile{
		Workload:   name,
		Seed:       seed,
		Spans:      tr.kept,
		SpanTotals: tr.totals(),
		CPUPct:     cpu,
		Metrics:    layers,
		Diagnostics: map[string]metric{
			"untraced.ops_per_s":      {float64(untraced.attempted) / untraced.elapsed.Seconds(), "1/s"},
			"traced.ops_per_s":        {float64(out.attempted) / out.elapsed.Seconds(), "1/s"},
			"untraced.op_wall_p99_us": {untraced.wallP99, "us"},
		},
	}
	if err := writeTraceFile(filepath.Join(outDir, fmt.Sprintf("trace-%s-%d.json", name, seed)), tf); err != nil {
		return nil, err
	}
	return &result{
		Correct:   correct && out.failed == 0 && failed == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   layers,
	}, nil
}

// mergeWindows returns the first window's outcome with every wall-clock and
// memory figure replaced by its median over the windows. The windows ran
// one seed, so they must agree on every virtual-time metric and exact
// count; agree is false when they do not.
func mergeWindows(ws []*outcome) (o *outcome, agree bool) {
	o, agree = ws[0], true
	for _, x := range ws[1:] {
		if a, b := o.virtualPrint(), x.virtualPrint(); a != b {
			fmt.Fprintf(os.Stderr, "perfbench: measure windows of one seed diverged:\n%s\n%s\n", a, b)
			agree = false
		}
	}
	med := func(f func(*outcome) float64) float64 {
		v := make([]float64, len(ws))
		for i, x := range ws {
			v[i] = f(x)
		}
		return median(v)
	}
	o.opsPerS = med(func(x *outcome) float64 { return x.opsPerS })
	o.wallP50 = med(func(x *outcome) float64 { return x.wallP50 })
	o.wallP99 = med(func(x *outcome) float64 { return x.wallP99 })
	o.liveHeapMB = med(func(x *outcome) float64 { return x.liveHeapMB })
	o.allocBytesPerOp = med(func(x *outcome) float64 { return x.allocBytesPerOp })
	o.allocsPerOp = med(func(x *outcome) float64 { return x.allocsPerOp })
	o.gcCyclesPerKop = med(func(x *outcome) float64 { return x.gcCyclesPerKop })
	o.elapsed = time.Duration(med(func(x *outcome) float64 { return float64(x.elapsed) }))
	return o, agree
}

// quantile returns the q-quantile of sorted values by nearest rank.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[max(0, min(i, len(sorted)-1))]
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}
