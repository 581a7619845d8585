package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
)

// committedLedger is the ledger at the repository root.
const committedLedger = "../../PERF_ledger.json"

func loadLedger(t *testing.T) *Ledger {
	t.Helper()
	l, err := readLedger(committedLedger)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

// gates returns fresh copies of the committed gates of one rule, so a test
// can mutate their values freely.
func gates(t *testing.T, rule string) []*Gate {
	t.Helper()
	var out []*Gate
	for _, g := range loadLedger(t).Gates {
		if g.Rule == rule {
			out = append(out, g)
		}
	}
	if len(out) == 0 {
		t.Fatalf("the committed ledger has no %s gate", rule)
	}
	return out
}

func num(v float64) string { return strconv.FormatFloat(v, 'f', -1, 64) }

// benchInput renders ns/op and allocs/op medians as go test -bench lines.
// A benchmark gated on allocs/op only is given 1 ns/op.
func benchInput(ns, allocs map[string]float64) string {
	var sb strings.Builder
	names := map[string]bool{}
	for n := range ns {
		names[n] = true
	}
	for n := range allocs {
		names[n] = true
	}
	for n := range names {
		v, ok := ns[n]
		if !ok {
			v = 1
		}
		fmt.Fprintf(&sb, "%s-2   \t       1\t %s ns/op", n, num(v))
		if a, ok := allocs[n]; ok {
			fmt.Fprintf(&sb, "\t   64 B/op\t %s allocs/op", num(a))
		}
		sb.WriteString("\n")
	}
	return sb.String()
}

// loadInput renders a cmd/upnp-load result carrying the given p99s.
func loadInput(t *testing.T, scenario, mode string, seed int64, p99 map[string]float64) string {
	t.Helper()
	ops := map[string]map[string]float64{}
	for name, v := range p99 {
		ops[name] = map[string]float64{"p99_ns": v, "count": 10}
	}
	raw, err := json.Marshal(map[string]any{"scenario": scenario, "mode": mode, "seed": seed, "ops": ops})
	if err != nil {
		t.Fatal(err)
	}
	return string(raw)
}

// speedupInput renders a paired run whose slow/fast ratios are ratios: the
// fast tag is appended to each stem, which speedupRatios removes again.
func speedupInput(pair string, ratios map[string]float64) string {
	fast, slow, _ := strings.Cut(pair, ",")
	var sb strings.Builder
	for stem, r := range ratios {
		fmt.Fprintf(&sb, "%s/%s-2 \t 10\t 1000 ns/op\n", stem, fast)
		fmt.Fprintf(&sb, "%s/%s-2 \t 10\t %s ns/op\n", stem, slow, num(1000*r))
	}
	return sb.String()
}

// ownInput builds an input from the gate's own committed values.
func ownInput(t *testing.T, g *Gate) string {
	t.Helper()
	switch g.Rule {
	case "bench":
		return benchInput(g.NsPerOp, g.AllocsPerOp)
	case "load":
		return loadInput(t, g.Scenario, g.Mode, g.Seed, g.P99Ns)
	case "slo":
		return loadInput(t, g.Scenario, g.Mode, 1, g.P99MaxNs)
	case "speedup":
		return speedupInput(g.Pair, g.Speedup)
	}
	t.Fatalf("gate %s: unknown rule %q", g.Name, g.Rule)
	return ""
}

// gateRun runs benchgate on input against a private copy of the committed
// ledger and returns the exit status, stdout and stderr.
func gateRun(t *testing.T, input string, extra ...string) (int, string, string, string) {
	t.Helper()
	dir := t.TempDir()
	raw, err := os.ReadFile(committedLedger)
	if err != nil {
		t.Fatal(err)
	}
	ledger := filepath.Join(dir, "ledger.json")
	in := filepath.Join(dir, "input")
	if err := os.WriteFile(ledger, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(in, []byte(input), 0o644); err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	code := run(append([]string{"-ledger", ledger, "-input", in}, extra...), &stdout, &stderr)
	return code, stdout.String(), stderr.String(), ledger
}

func geomeanOf(m map[string]float64) float64 {
	s := 0.0
	for _, v := range m {
		s += math.Log(v)
	}
	return math.Exp(s / float64(len(m)))
}

func TestCommittedGatesPassOnTheirOwnValues(t *testing.T) {
	for _, g := range loadLedger(t).Gates {
		t.Run(g.Name, func(t *testing.T) {
			code, out, errOut, _ := gateRun(t, ownInput(t, g))
			if !strings.Contains(out, "== gate "+g.Name+" ") {
				t.Fatalf("gate %s did not apply to its own values:\n%s%s", g.Name, out, errOut)
			}
			if g.Rule == "bench" || g.Rule == "load" {
				if n := strings.Count(out, "ratio over"); n == 0 || strings.Count(out, ": 1.000x (threshold") != n {
					t.Errorf("geomean not 1.000x:\n%s", out)
				}
			}
			if g.Rule == "speedup" && geomeanOf(g.Speedup) < g.Floor {
				// The committed ratio predates hardware that can reach the
				// floor: the relative rule passes and only the floor fails.
				if code != 1 || strings.Count(errOut, "FAIL") != 1 || !strings.Contains(errOut, "floor") {
					t.Fatalf("exit %d, want 1 with the floor as the only failure:\n%s", code, errOut)
				}
				t.Logf("committed geomean %.2fx sits below the %.2fx floor", geomeanOf(g.Speedup), g.Floor)
				return
			}
			if code != 0 {
				t.Fatalf("exit %d on the gate's own values:\n%s%s", code, out, errOut)
			}
		})
	}
}

func TestMutatedInputsFail(t *testing.T) {
	type mutation struct {
		name  string
		input string
		code  int
		want  string // a substring of the failure output
	}
	var cases []mutation
	for _, g := range gates(t, "bench") {
		ns := map[string]float64{}
		for k, v := range g.NsPerOp {
			ns[k] = v * 1.5
		}
		cases = append(cases, mutation{g.Name + "/ns x1.5", benchInput(ns, g.AllocsPerOp), 1, "geomean ns/op regression"})
		allocs, zeros := map[string]float64{}, 0
		for k, v := range g.AllocsPerOp {
			if v == 0 {
				v, zeros = 100, zeros+1
			}
			allocs[k] = v
		}
		if zeros == 0 {
			t.Fatalf("gate %s has no zero-allocation entry to regress", g.Name)
		}
		cases = append(cases, mutation{g.Name + "/allocs 0 to 100", benchInput(g.NsPerOp, allocs), 1, "geomean allocs/op regression"})
		droppedNs, droppedAllocs := map[string]float64{}, map[string]float64{}
		for k, v := range g.NsPerOp {
			droppedNs[k] = v
		}
		for k, v := range g.AllocsPerOp {
			droppedAllocs[k] = v
		}
		first := sortedKeys(droppedNs)[0]
		delete(droppedNs, first)
		delete(droppedAllocs, first)
		cases = append(cases, mutation{g.Name + "/dropped entry", benchInput(droppedNs, droppedAllocs), 1, "ns/op of " + first + " is missing"})
	}
	for _, g := range gates(t, "load") {
		slow := map[string]float64{}
		for k, v := range g.P99Ns {
			slow[k] = v * 1.25
		}
		cases = append(cases,
			mutation{g.Name + "/p99 x1.25", loadInput(t, g.Scenario, g.Mode, g.Seed, slow), 1, "geomean p99 ns regression"},
			mutation{g.Name + "/wrong seed", loadInput(t, g.Scenario, g.Mode, g.Seed+1, g.P99Ns), 1, "pins seed"},
			mutation{g.Name + "/wrong scenario", loadInput(t, g.Scenario+"-x", g.Mode, g.Seed, g.P99Ns), 2, "no gate"},
			mutation{g.Name + "/wrong mode", loadInput(t, g.Scenario, g.Mode+"-x", g.Seed, g.P99Ns), 2, "no gate"},
		)
		dropped := map[string]float64{}
		for k, v := range g.P99Ns {
			dropped[k] = v
		}
		delete(dropped, sortedKeys(dropped)[0])
		cases = append(cases, mutation{g.Name + "/dropped op", loadInput(t, g.Scenario, g.Mode, g.Seed, dropped), 1, "missing from the input"})
	}
	for _, g := range gates(t, "slo") {
		over := map[string]float64{}
		for k, v := range g.P99MaxNs {
			over[k] = v
		}
		first := sortedKeys(over)[0]
		over[first]++
		cases = append(cases, mutation{g.Name + "/one op over its ceiling", loadInput(t, g.Scenario, g.Mode, 1, over), 1, "op " + first + " p99"})
	}
	for _, g := range gates(t, "speedup") {
		// Scale every ratio so the geomean lands just under the floor.
		below := map[string]float64{}
		f := 0.99 * g.Floor / geomeanOf(g.Speedup)
		for k, v := range g.Speedup {
			below[k] = v * f
		}
		cases = append(cases, mutation{g.Name + "/below the floor", speedupInput(g.Pair, below), 1, "below the"})
		regressed := map[string]float64{}
		for k, v := range g.Speedup {
			regressed[k] = v
		}
		first := sortedKeys(regressed)[0]
		regressed[first] /= 1.25
		cases = append(cases, mutation{g.Name + "/ratio 20% under", speedupInput(g.Pair, regressed), 1, first + " speedup"})
		// A fast half with no slow twin.
		lone := strings.SplitAfterN(speedupInput(g.Pair, map[string]float64{first: g.Speedup[first]}), "\n", 2)[0]
		cases = append(cases, mutation{g.Name + "/no twin", speedupInput(g.Pair, g.Speedup) + strings.Replace(lone, first, first+"/extra", 1), 1, "twin"})
	}
	cases = append(cases,
		mutation{"bench/matches no gate", "BenchmarkNothing-2 \t 1\t 5 ns/op\n", 2, "no gate"},
		mutation{"neither bench nor load", "hello\n", 2, "neither"},
	)
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			code, out, errOut, _ := gateRun(t, c.input)
			if code != c.code || !strings.Contains(errOut, c.want) {
				t.Fatalf("exit %d, want %d with %q in:\n%s%s", code, c.code, c.want, out, errOut)
			}
			t.Logf("exit %d: %s", code, strings.TrimSpace(errOut))
		})
	}
}

func TestBenchFailurePrintsProfileHint(t *testing.T) {
	g := gates(t, "bench")[0]
	ns := map[string]float64{}
	for k, v := range g.NsPerOp {
		ns[k] = v * 1.5
	}
	_, _, errOut, _ := gateRun(t, benchInput(ns, g.AllocsPerOp))
	if !strings.Contains(errOut, "-cpuprofile cpu.pprof") {
		t.Fatalf("no profile hint:\n%s", errOut)
	}
}

func TestUpdateWritesOnlyMeasuredValues(t *testing.T) {
	scaled := func(m map[string]float64, f float64) map[string]float64 {
		out := map[string]float64{}
		for k, v := range m {
			out[k] = v * f
		}
		return out
	}
	for _, g := range loadLedger(t).Gates {
		t.Run(g.Name, func(t *testing.T) {
			// want is the committed ledger with only this gate's measured
			// values replaced by what the input measured.
			want := loadLedger(t)
			var w *Gate
			for _, wg := range want.Gates {
				if wg.Name == g.Name {
					w = wg
				}
			}
			var input string
			switch g.Rule {
			case "bench":
				w.NsPerOp, w.AllocsPerOp = scaled(g.NsPerOp, 1.5), scaled(g.AllocsPerOp, 2)
				// An input benchmark the gate does not hold is not added.
				input = benchInput(w.NsPerOp, w.AllocsPerOp) + "BenchmarkNew-2 \t 1\t 7 ns/op\n"
			case "load":
				w.P99Ns = scaled(g.P99Ns, 1.25)
				input = loadInput(t, g.Scenario, g.Mode, g.Seed, w.P99Ns)
			case "slo":
				// Ceilings are limits, not measured values: nothing changes.
				input = loadInput(t, g.Scenario, g.Mode, 1, scaled(g.P99MaxNs, 3))
			case "speedup":
				w.Speedup = scaled(g.Speedup, 0.5)
				input = speedupInput(g.Pair, w.Speedup)
			}
			code, out, errOut, path := gateRun(t, input, "-update")
			if code != 0 {
				t.Fatalf("-update exit %d:\n%s%s", code, out, errOut)
			}
			got, err := readLedger(path)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				a, _ := json.MarshalIndent(got, "", " ")
				b, _ := json.MarshalIndent(want, "", " ")
				t.Fatalf("ledger after -update:\n%s\nwant:\n%s", a, b)
			}
		})
	}
}

// TestUpdateKeepsCommittedBytes pins the ledger to the encoding -update
// writes, so a refresh diff shows only the values that moved.
func TestUpdateKeepsCommittedBytes(t *testing.T) {
	orig, err := os.ReadFile(committedLedger)
	if err != nil {
		t.Fatal(err)
	}
	g := gates(t, "load")[0]
	code, out, errOut, path := gateRun(t, ownInput(t, g), "-update")
	if code != 0 {
		t.Fatalf("-update exit %d:\n%s%s", code, out, errOut)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, orig) {
		t.Fatalf("-update with unchanged values rewrote the ledger differently:\n%s", got)
	}
}
