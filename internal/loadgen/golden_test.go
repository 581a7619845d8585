package loadgen

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"testing"
	"time"
)

// goldenRun is one virtual configuration pinned by the digest of its result
// JSON: a preset, optionally tweaked, run at every listed ShardWorkers value.
type goldenRun struct {
	preset  string
	tweak   func(*Config)
	workers []int // ShardWorkers values swept; nil runs the preset's own
	digest  string
}

// goldenRuns are the sha256 digests of virtual runs' result JSON, byte for
// byte as `upnp-load -scenario <name> -out FILE` writes it (MarshalIndent
// plus a trailing newline). A virtual run is a pure function of its config,
// so any change to the simulator, the SDK or the workload runner that moves
// a single latency sample, counter or schedule decision changes a digest.
// The zoned and fleet runs are swept across sharded-clock worker counts, all
// of which must reproduce the one digest. Update a digest only for a change
// that is meant to move the output, and say so where the change is recorded.
var goldenRuns = map[string]goldenRun{
	"smoke":  {preset: "smoke", digest: "f2172751b18d4b0eeeea71d55098d437c95029519abc0732f168edce789c2972"},
	"steady": {preset: "steady", digest: "5bc70fd3d527825c14ea3c184e198952a5e090a33afda3bfcbf6f477d266781a"},
	"churn":  {preset: "churn", digest: "81c5a8eec47caf5dea2e50ecb7e96cdb736aaea8e7f614820e6b4ad382d89a08"},
	"zoned": {preset: "zoned", workers: []int{0, 1, 2, 8},
		digest: "33c4541ebc1c34750c975e7a42683bda5990913f9f898f341b08683c62b9ca44"},
	"fleet": {preset: "fleet", workers: []int{0, 1, 4},
		digest: "57b0936cd193bafa94eadfd409d6fa24ed98f24971bea303ba79b7cda201ece3"},
	"fanout": {preset: "fanout", digest: "7d39bfe6e9a37ff7b4f0f07e0a961b6e4c8e22b4ae6452d15e94ec4473023867"},
	"smoke-closed": {preset: "smoke",
		tweak:  func(c *Config) { c.Arrival, c.Workers = ArrivalClosed, 4 },
		digest: "822bfc24a3ea6b19eb3a63379eedc0288fd6c73a67e6071ccbbd57b6b5791394"},
	"churn-failover": {preset: "churn",
		tweak: func(c *Config) {
			c.Managers, c.ManagerFailAt, c.Seed, c.LossRate = 2, 77*time.Second, 5, 0.03
		},
		digest: "a11200e63fe23c4d8ee374be383e6bc76ebfb22d173fbe1efb75c799fe99188d"},
}

// TestPresetGoldenHashes runs each pinned configuration, at each of its
// worker counts, and compares its result JSON against the committed digest.
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
			if g.workers == nil {
				checkGolden(t, cfg, g.digest)
				return
			}
			for _, w := range g.workers {
				t.Run(fmt.Sprintf("shard-workers=%d", w), func(t *testing.T) {
					cfg.ShardWorkers = w
					checkGolden(t, cfg, g.digest)
				})
			}
		})
	}
}

func checkGolden(t *testing.T, cfg Config, want string) {
	t.Helper()
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	out, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(append(out, '\n'))
	if got := hex.EncodeToString(sum[:]); got != want {
		t.Fatalf("result JSON hashes to %s, want %s", got, want)
	}
}
