// Command benchgate is the performance gate. It reads one measurement
// (-input), finds the gates of the committed ledger (PERF_ledger.json) that
// apply to it, and checks each against its rule and committed values. With
// -update it writes the measured values back into the ledger instead of
// failing on them.
//
// Which gates apply follows from the input alone:
//
//   - `go test -bench` output matches the bench gate when it holds any of
//     the gate's benchmarks, and every speedup gate whose fast tag (for
//     example clock=sharded) appears in a benchmark name;
//   - a cmd/upnp-load result (its -out JSON) matches the load or slo gate
//     with the same scenario and mode.
//
// The four rules:
//
//   - bench: the median ns/op and allocs/op over the -count repetitions are
//     ratioed against the committed values, and the geomean of each metric
//     must stay within the gate's threshold (allocs smoothed as
//     (new+1)/(committed+1), so zero-allocation entries stay comparable). A
//     committed benchmark missing from the input fails. A failure prints
//     ready-to-run `go test -cpuprofile/-memprofile` lines for the worst
//     offenders.
//   - load: the per-op p99s of a deterministic virtual run, under the same
//     geomean rule (smoothed by 1 ms); the scenario, seed and mode are
//     pinned. Virtual runs reproduce exactly, so this rule has no noise
//     floor.
//   - slo: absolute per-op p99 ceilings, for wall-clock runs that are too
//     noisy for a relative rule.
//   - speedup: every fast benchmark is paired with its slow twin (the same
//     name with the slow tag). The geomean slow/fast ratio must reach the
//     gate's floor, no ratio may fall below committed/threshold, and a fast
//     benchmark with no twin or a committed pair missing from the input
//     fails.
//
// Usage:
//
//	go test -run '^$' -bench <pattern> -benchtime 1x -count 6 ./... | tee bench.txt
//	go run ./cmd/benchgate -input bench.txt
//	go run ./cmd/upnp-load -scenario smoke -out LOAD_result.json
//	go run ./cmd/benchgate -input LOAD_result.json
//	go run ./cmd/benchgate -input bench.txt -update
//
// -update rewrites only the measured values (ns/op, allocs/op, p99s and
// speedup ratios) that the matched gates already hold. Thresholds, floors,
// SLO ceilings and pins change only by editing the ledger, and so does
// adding an entry. Exit status: 0 when every matched gate passes, 1 when one
// fails, 2 on bad input or when no gate applies.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// Ledger is the committed performance record: every gate benchgate knows.
type Ledger struct {
	Note  string  `json:"note"`
	Gates []*Gate `json:"gates"`
}

// Gate is one committed check: the inputs it applies to, its rule and
// limits, and the measured values it compares against.
type Gate struct {
	Name string `json:"name"`
	// Rule is bench, load, slo or speedup.
	Rule string `json:"rule"`
	Note string `json:"note,omitempty"`

	// The selector. load and slo gates apply to cmd/upnp-load results of
	// Scenario and Mode, and a load gate also pins Seed. A speedup gate
	// applies to benchmarks carrying the fast tag of Pair ("fast,slow").
	Scenario string `json:"scenario,omitempty"`
	Mode     string `json:"mode,omitempty"`
	Seed     int64  `json:"seed,omitempty"`
	Pair     string `json:"pair,omitempty"`

	// The limits, never written by -update.
	Threshold float64            `json:"threshold,omitempty"`
	Floor     float64            `json:"floor,omitempty"`
	P99MaxNs  map[string]float64 `json:"p99_max_ns,omitempty"`

	// The measured values, rewritten by -update.
	NsPerOp     map[string]float64 `json:"ns_per_op,omitempty"`
	AllocsPerOp map[string]float64 `json:"allocs_per_op,omitempty"`
	P99Ns       map[string]float64 `json:"p99_ns,omitempty"`
	Speedup     map[string]float64 `json:"speedup,omitempty"`
}

// latencySmooth is added to both sides of every p99 ratio so zero-sample
// operations stay comparable (1 ms, well under any real op latency in the
// gated scenarios).
const latencySmooth = 1e6

// input is one measurement: go test -bench medians or an upnp-load result.
type input struct {
	ns, allocs map[string]float64
	load       *loadResult
}

// loadResult is the subset of a cmd/upnp-load result the gates read.
type loadResult struct {
	Scenario string `json:"scenario"`
	Mode     string `json:"mode"`
	Seed     int64  `json:"seed"`
	Ops      map[string]struct {
		P99Ns float64 `json:"p99_ns"`
	} `json:"ops"`
}

var (
	benchLine  = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+\d+\s+([0-9.]+) ns/op`)
	allocsPart = regexp.MustCompile(`\s([0-9.]+) allocs/op`)
)

func readInput(path string) (*input, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var res loadResult
	if json.Unmarshal(raw, &res) == nil {
		if len(res.Ops) == 0 {
			return nil, fmt.Errorf("no ops in %s", path)
		}
		return &input{load: &res}, nil
	}
	nsSamples := map[string][]float64{}
	allocSamples := map[string][]float64{}
	for _, line := range strings.Split(string(raw), "\n") {
		m := benchLine.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		v, err := strconv.ParseFloat(m[2], 64)
		if err != nil {
			return nil, fmt.Errorf("bad ns/op in %q: %v", line, err)
		}
		nsSamples[m[1]] = append(nsSamples[m[1]], v)
		if am := allocsPart.FindStringSubmatch(line); am != nil {
			a, err := strconv.ParseFloat(am[1], 64)
			if err != nil {
				return nil, fmt.Errorf("bad allocs/op in %q: %v", line, err)
			}
			allocSamples[m[1]] = append(allocSamples[m[1]], a)
		}
	}
	if len(nsSamples) == 0 {
		return nil, fmt.Errorf("%s holds neither go test -bench lines nor an upnp-load result", path)
	}
	return &input{ns: medians(nsSamples), allocs: medians(allocSamples)}, nil
}

func medians(samples map[string][]float64) map[string]float64 {
	out := map[string]float64{}
	for name, vals := range samples {
		sort.Float64s(vals)
		n := len(vals)
		out[name] = (vals[(n-1)/2] + vals[n/2]) / 2
	}
	return out
}

func readLedger(path string) (*Ledger, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var l Ledger
	if err := json.Unmarshal(raw, &l); err != nil {
		return nil, fmt.Errorf("parsing %s: %v", path, err)
	}
	for _, g := range l.Gates {
		fast, slow, _ := strings.Cut(g.Pair, ",")
		ok := map[string]bool{
			"bench":   len(g.NsPerOp) > 0 && g.Threshold > 0,
			"load":    g.Scenario != "" && g.Mode != "" && len(g.P99Ns) > 0 && g.Threshold > 0,
			"slo":     g.Scenario != "" && g.Mode != "" && len(g.P99MaxNs) > 0,
			"speedup": fast != "" && slow != "" && g.Floor > 0 && g.Threshold > 0,
		}[g.Rule]
		if !ok {
			return nil, fmt.Errorf("%s: gate %q lacks what rule %q needs", path, g.Name, g.Rule)
		}
	}
	return &l, nil
}

// applies reports whether the gate checks this input.
func (g *Gate) applies(in *input) bool {
	switch g.Rule {
	case "load", "slo":
		return in.load != nil && in.load.Scenario == g.Scenario && in.load.Mode == g.Mode
	case "speedup":
		fast, _, _ := strings.Cut(g.Pair, ",")
		for name := range in.ns {
			if strings.Contains(name, "/"+fast) {
				return true
			}
		}
	case "bench":
		for name := range in.ns {
			if _, ok := g.NsPerOp[name]; ok {
				return true
			}
		}
		for name := range in.allocs {
			if _, ok := g.AllocsPerOp[name]; ok {
				return true
			}
		}
	}
	return false
}

// measure reads the input in the gate's own fields: the values check
// compares and -update writes. A broken seed pin or a fast benchmark with
// no slow twin is an error.
func (g *Gate) measure(in *input) (*Gate, error) {
	switch g.Rule {
	case "bench":
		return &Gate{NsPerOp: in.ns, AllocsPerOp: in.allocs}, nil
	case "speedup":
		ratios, err := speedupRatios(in.ns, g.Pair)
		return &Gate{Speedup: ratios}, err
	}
	if g.Rule == "load" && in.load.Seed != g.Seed {
		return nil, fmt.Errorf("the gate pins seed %d but the run used seed %d; p99 ratios only mean something within one deterministic run", g.Seed, in.load.Seed)
	}
	p99 := map[string]float64{}
	for name, op := range in.load.Ops {
		p99[name] = op.P99Ns
	}
	return &Gate{P99Ns: p99}, nil
}

// speedupRatios pairs every benchmark carrying the fast tag of pair with its
// slow twin (the same name with the slow tag) and returns the slow/fast
// median ns/op ratio per stem (the name with the fast component removed).
// A fast benchmark with no twin is an error: a lone half would silently
// un-gate the speedup.
func speedupRatios(ns map[string]float64, pair string) (map[string]float64, error) {
	fastTag, slowTag, _ := strings.Cut(pair, ",")
	fast, slow := "/"+fastTag, "/"+slowTag
	ratios := map[string]float64{}
	for name, fastNs := range ns {
		if !strings.Contains(name, fast) {
			continue
		}
		slowNs, ok := ns[strings.Replace(name, fast, slow, 1)]
		if !ok {
			return nil, fmt.Errorf("%s has no %s twin in the run", name, slow)
		}
		if fastNs <= 0 {
			return nil, fmt.Errorf("%s: non-positive ns/op", name)
		}
		ratios[strings.Replace(name, fast, "", 1)] = slowNs / fastNs
	}
	return ratios, nil
}

// check prints the gate's committed-versus-measured tables to w and
// returns why the measurement fails the gate, plus the worst bench
// offenders to profile.
func (g *Gate) check(w io.Writer, got *Gate) (fails, worst []string) {
	switch g.Rule {
	case "bench":
		fails, worst = geomeanRule(w, "ns/op", g.NsPerOp, got.NsPerOp, 0, g.Threshold)
		if len(g.AllocsPerOp) > 0 {
			f, wst := geomeanRule(w, "allocs/op", g.AllocsPerOp, got.AllocsPerOp, 1, g.Threshold)
			fails, worst = append(fails, f...), append(worst, wst...)
		}
	case "load":
		fails, _ = geomeanRule(w, "p99 ns", g.P99Ns, got.P99Ns, latencySmooth, g.Threshold)
	case "slo":
		fmt.Fprintf(w, "%-30s %14s %14s\n", "op p99 SLO (ns)", "ceiling", "measured")
		for _, name := range sortedKeys(g.P99MaxNs) {
			ceiling := g.P99MaxNs[name]
			p99, ok := got.P99Ns[name]
			if !ok {
				fmt.Fprintf(w, "%-30s %14.0f %14s\n", name, ceiling, "MISSING")
				fails = append(fails, fmt.Sprintf("op %s has an SLO but is missing from the run", name))
				continue
			}
			fmt.Fprintf(w, "%-30s %14.0f %14.0f\n", name, ceiling, p99)
			if p99 > ceiling {
				fails = append(fails, fmt.Sprintf("op %s p99 %.0fns exceeds the %.0fns SLO", name, p99, ceiling))
			}
		}
	case "speedup":
		fast, slow, _ := strings.Cut(g.Pair, ",")
		fmt.Fprintf(w, "%-55s %10s %10s\n", "speedup ("+slow+"/"+fast+" ns/op)", "committed", "measured")
		logSum := 0.0
		for _, name := range sortedKeys(got.Speedup) {
			r := got.Speedup[name]
			b, ok := g.Speedup[name]
			committed := "-"
			if ok {
				committed = fmt.Sprintf("%.2fx", b)
			}
			fmt.Fprintf(w, "%-55s %10s %9.2fx\n", name, committed, r)
			logSum += math.Log(r)
			if ok && r < b/g.Threshold {
				fails = append(fails, fmt.Sprintf("%s speedup %.2fx regressed more than %.0f%% from the committed %.2fx", name, r, (g.Threshold-1)*100, b))
			}
		}
		for _, name := range sortedKeys(g.Speedup) {
			if _, ok := got.Speedup[name]; !ok {
				fails = append(fails, fmt.Sprintf("committed speedup pair %s is missing from the run", name))
			}
		}
		// The floor applies to the geomean over the pair set, not to each
		// ratio: a pair set is one optimisation (one parallel simulator, one
		// compiled driver plane) and the claim is that it pays overall,
		// while single members (a signal-bound relay driver) may sit below.
		geo := math.Exp(logSum / float64(len(got.Speedup)))
		fmt.Fprintf(w, "geomean speedup over %d pair(s): %.2fx (floor %.2fx)\n", len(got.Speedup), geo, g.Floor)
		if geo < g.Floor {
			fails = append(fails, fmt.Sprintf("geomean speedup %.2fx is below the %.2fx floor", geo, g.Floor))
		}
	}
	return fails, worst
}

// geomeanRule prints one committed-versus-measured table and applies the
// relative rule: every committed entry must be measured, and the geomean of
// (measured+smooth)/(committed+smooth) must not exceed threshold. worst
// names up to three entries above 1x, worst first.
func geomeanRule(w io.Writer, metric string, committed, measured map[string]float64, smooth, threshold float64) (fails, worst []string) {
	type row struct {
		name  string
		ratio float64
	}
	var rows []row
	logSum := 0.0
	fmt.Fprintf(w, "%-55s %14s %14s %8s\n", metric, "committed", "measured", "ratio")
	for _, name := range sortedKeys(committed) {
		m, ok := measured[name]
		if !ok {
			fmt.Fprintf(w, "%-55s %14.1f %14s %8s\n", name, committed[name], "MISSING", "-")
			fails = append(fails, fmt.Sprintf("%s of %s is missing from the input; edit the ledger if it was renamed", metric, name))
			continue
		}
		r := (m + smooth) / (committed[name] + smooth)
		fmt.Fprintf(w, "%-55s %14.1f %14.1f %7.3fx\n", name, committed[name], m, r)
		logSum += math.Log(r)
		rows = append(rows, row{name, r})
	}
	for _, name := range sortedKeys(measured) {
		if _, ok := committed[name]; !ok {
			fmt.Fprintf(w, "%-55s %14s %14.1f %8s  (not in the ledger)\n", name, "-", measured[name], "-")
		}
	}
	if len(rows) == 0 {
		return fails, nil
	}
	geo := math.Exp(logSum / float64(len(rows)))
	fmt.Fprintf(w, "geomean %s ratio over %d: %.3fx (threshold %.2fx)\n\n", metric, len(rows), geo, threshold)
	if geo > threshold {
		fails = append(fails, fmt.Sprintf("geomean %s regression %.3fx exceeds %.2fx", metric, geo, threshold))
	}
	sort.SliceStable(rows, func(i, j int) bool { return rows[i].ratio > rows[j].ratio })
	for i := 0; i < len(rows) && i < 3 && rows[i].ratio > 1; i++ {
		worst = append(worst, rows[i].name)
	}
	return fails, worst
}

// update copies the measured values into the entries the gate already
// holds and returns how many it wrote. Limits are not measured values, so
// they never change here.
func (g *Gate) update(got *Gate) (n int) {
	for _, m := range [][2]map[string]float64{
		{g.NsPerOp, got.NsPerOp}, {g.AllocsPerOp, got.AllocsPerOp},
		{g.P99Ns, got.P99Ns}, {g.Speedup, got.Speedup},
	} {
		for name := range m[0] {
			if v, ok := m[1][name]; ok {
				m[0][name] = v
				n++
			}
		}
	}
	return n
}

func sortedKeys(m map[string]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// printProfileHint prints go test profiling lines for the worst offenders
// of a failed bench gate.
func printProfileHint(w io.Writer, worst []string) {
	fmt.Fprintln(w, "\nprofile the worst offenders:")
	seen := map[string]bool{}
	for _, name := range worst {
		root, _, _ := strings.Cut(name, "/")
		if !seen[root] {
			seen[root] = true
			fmt.Fprintf(w, "  go test -run '^$' -bench '^%s$' -benchtime 10x -cpuprofile cpu.pprof -memprofile mem.pprof ./...\n", root)
		}
	}
	fmt.Fprintln(w, "  go tool pprof -top cpu.pprof   # or: -alloc_objects mem.pprof")
	fmt.Fprintln(w, "  go run ./cmd/upnp-sim -cpuprofile cpu.pprof -memprofile mem.pprof -things 100   # a scenario end to end")
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchgate", flag.ContinueOnError)
	fs.SetOutput(stderr)
	inputPath := fs.String("input", "", "go test -bench output, or a cmd/upnp-load result JSON")
	ledgerPath := fs.String("ledger", "PERF_ledger.json", "the committed performance ledger")
	update := fs.Bool("update", false, "write the measured values of the matched gates into the ledger instead of failing on them")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *inputPath == "" {
		fmt.Fprintln(stderr, "benchgate: -input is required")
		fs.Usage()
		return 2
	}
	ledger, err := readLedger(*ledgerPath)
	if err != nil {
		fmt.Fprintf(stderr, "benchgate: %v\n", err)
		return 2
	}
	in, err := readInput(*inputPath)
	if err != nil {
		fmt.Fprintf(stderr, "benchgate: %v\n", err)
		return 2
	}
	matched, failed := 0, false
	for _, g := range ledger.Gates {
		if !g.applies(in) {
			continue
		}
		matched++
		fmt.Fprintf(stdout, "== gate %s (%s)\n", g.Name, g.Rule)
		got, err := g.measure(in)
		if err != nil {
			fmt.Fprintf(stderr, "benchgate: FAIL %s — %v\n", g.Name, err)
			failed = true
			continue
		}
		fails, worst := g.check(stdout, got)
		for _, f := range fails {
			fmt.Fprintf(stderr, "benchgate: FAIL %s — %s\n", g.Name, f)
		}
		if *update {
			fmt.Fprintf(stdout, "benchgate: %s: wrote %d measured value(s)\n", g.Name, g.update(got))
			continue
		}
		if len(fails) > 0 {
			failed = true
			if g.Rule == "bench" {
				printProfileHint(stderr, worst)
			}
		}
	}
	if matched == 0 {
		fmt.Fprintf(stderr, "benchgate: no gate in %s applies to %s\n", *ledgerPath, *inputPath)
		return 2
	}
	if *update {
		var buf bytes.Buffer
		enc := json.NewEncoder(&buf)
		enc.SetEscapeHTML(false)
		enc.SetIndent("", "  ")
		if err := enc.Encode(ledger); err != nil {
			fmt.Fprintf(stderr, "benchgate: %v\n", err)
			return 2
		}
		if err := os.WriteFile(*ledgerPath, buf.Bytes(), 0o644); err != nil {
			fmt.Fprintf(stderr, "benchgate: %v\n", err)
			return 2
		}
		fmt.Fprintf(stdout, "benchgate: updated %s (the check above is not enforced with -update)\n", *ledgerPath)
	}
	if failed {
		return 1
	}
	if !*update {
		fmt.Fprintln(stdout, "benchgate: OK")
	}
	return 0
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}
