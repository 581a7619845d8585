package loadgen

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"micropnp"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata/golden from this run")

// goldenRun is one virtual configuration pinned by a committed golden file:
// a preset, optionally tweaked, run at every listed ShardWorkers value.
type goldenRun struct {
	preset  string
	tweak   func(*Config)
	workers []int // ShardWorkers values swept; nil runs the preset's own
}

// goldenRuns are the virtual runs whose output is committed as
// testdata/golden/<name>.json. A virtual run is a pure function of its
// config, so any change to the simulator, the SDK or the workload runner
// that moves a single latency sample, counter or schedule decision changes a
// file. The zoned and fleet runs are swept across sharded-clock worker
// counts, all of which must reproduce the one file. Re-take a file (go test
// ./internal/loadgen -run TestPresetGoldenHashes -update) only for a change
// that is meant to move the output, and say so where the change is recorded.
var goldenRuns = map[string]goldenRun{
	"smoke":  {preset: "smoke"},
	"steady": {preset: "steady"},
	"churn":  {preset: "churn"},
	"zoned":  {preset: "zoned", workers: []int{0, 1, 2, 8}},
	"fleet":  {preset: "fleet", workers: []int{0, 1, 4}},
	"fanout": {preset: "fanout"},
	"smoke-closed": {preset: "smoke",
		tweak: func(c *Config) { c.Arrival, c.Workers = ArrivalClosed, 4 }},
	"churn-failover": {preset: "churn",
		tweak: func(c *Config) {
			c.Managers, c.ManagerFailAt, c.Seed, c.LossRate = 2, 77*time.Second, 5, 0.03
		}},
}

// goldenFile is the layout of a golden file: the result JSON exactly as
// `upnp-load -scenario <name> -out FILE` writes it, re-indented one level,
// and the run's network counters, which the result JSON leaves out.
type goldenFile struct {
	Result  json.RawMessage       `json:"result"`
	Network micropnp.NetworkStats `json:"network"`
}

// TestPresetGoldenHashes runs each pinned configuration, at each of its
// worker counts, and compares its output with the committed golden file,
// naming every field that moved. With -update the first worker count
// rewrites the file and the others must still reproduce it.
func TestPresetGoldenHashes(t *testing.T) {
	for name, g := range goldenRuns {
		t.Run(name, func(t *testing.T) {
			cfg, err := Preset(g.preset)
			if err != nil {
				t.Fatal(err)
			}
			if g.tweak != nil {
				g.tweak(&cfg)
			}
			path := filepath.Join("testdata", "golden", name+".json")
			if g.workers == nil {
				checkGolden(t, cfg, path, *update)
				return
			}
			for i, w := range g.workers {
				t.Run(fmt.Sprintf("shard-workers=%d", w), func(t *testing.T) {
					cfg.ShardWorkers = w
					checkGolden(t, cfg, path, *update && i == 0)
				})
			}
		})
	}
}

func checkGolden(t *testing.T, cfg Config, path string, rewrite bool) {
	t.Helper()
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	out, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got, err := json.MarshalIndent(goldenFile{Result: out, Network: res.Network}, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')
	if rewrite {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (create it with -update)", err)
	}
	if bytes.Equal(got, want) {
		return
	}
	diffs := jsonDiff(t, want, got)
	if len(diffs) == 0 {
		diffs = []string{"(same values, different bytes)"}
	}
	t.Fatalf("output differs from %s (path: committed → got):\n  %s\nif the change is intended, re-take it with -update",
		path, strings.Join(diffs, "\n  "))
}

// jsonDiff decodes two JSON documents, keeping numbers as their literal
// text, and lists every leaf that differs as "path: committed → got".
func jsonDiff(t *testing.T, want, got []byte) []string {
	t.Helper()
	decode := func(b []byte) any {
		dec := json.NewDecoder(bytes.NewReader(b))
		dec.UseNumber()
		var v any
		if err := dec.Decode(&v); err != nil {
			t.Fatal(err)
		}
		return v
	}
	var out []string
	var walk func(path string, a, b any)
	walk = func(path string, a, b any) {
		am, aObj := a.(map[string]any)
		bm, bObj := b.(map[string]any)
		if aObj && bObj {
			keys := make([]string, 0, len(am)+len(bm))
			for k := range am {
				keys = append(keys, k)
			}
			for k := range bm {
				if _, ok := am[k]; !ok {
					keys = append(keys, k)
				}
			}
			slices.Sort(keys)
			for _, k := range keys {
				walk(path+"."+k, am[k], bm[k])
			}
			return
		}
		as, aArr := a.([]any)
		bs, bArr := b.([]any)
		if aArr && bArr && len(as) == len(bs) {
			for i := range as {
				walk(fmt.Sprintf("%s[%d]", path, i), as[i], bs[i])
			}
			return
		}
		ab, _ := json.Marshal(a)
		bb, _ := json.Marshal(b)
		if !bytes.Equal(ab, bb) {
			out = append(out, fmt.Sprintf("%s: %s → %s", strings.TrimPrefix(path, "."), ab, bb))
		}
	}
	walk("", decode(want), decode(got))
	return out
}
