package loadgen

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"testing"
)

// goldenResultHashes are the sha256 digests of the virtual presets' result
// JSON, byte for byte as `upnp-load -scenario <name> -out FILE` writes it
// (MarshalIndent plus a trailing newline). A virtual run is a pure function
// of its config, so any change to the simulator, the SDK or the workload
// runner that moves a single latency sample, counter or schedule decision
// changes a digest. Update a digest only for a change that is meant to move
// the output, and say so where the change is recorded.
var goldenResultHashes = map[string]string{
	"smoke":  "f2172751b18d4b0eeeea71d55098d437c95029519abc0732f168edce789c2972",
	"steady": "5bc70fd3d527825c14ea3c184e198952a5e090a33afda3bfcbf6f477d266781a",
	"churn":  "81c5a8eec47caf5dea2e50ecb7e96cdb736aaea8e7f614820e6b4ad382d89a08",
	"zoned":  "33c4541ebc1c34750c975e7a42683bda5990913f9f898f341b08683c62b9ca44",
}

// TestPresetGoldenHashes runs each preset and compares its result JSON
// against the committed digest.
func TestPresetGoldenHashes(t *testing.T) {
	for name, want := range goldenResultHashes {
		t.Run(name, func(t *testing.T) {
			cfg, err := Preset(name)
			if err != nil {
				t.Fatal(err)
			}
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
				t.Fatalf("%s result JSON hashes to %s, want %s", name, got, want)
			}
		})
	}
}
