package loadgen

import (
	"bytes"
	"encoding/json"
	"net/netip"
	"runtime"
	"testing"
	"time"

	"micropnp"
	"micropnp/internal/hw"
	"micropnp/internal/netsim"
)

// miniZonedCfg is the "zoned" preset shrunk to milliseconds of wall time:
// every op kind, loss on the wire (per-zone RNG on the critical path), and
// a 4-zone topology on the sharded clock.
func miniZonedCfg() Config {
	return Config{
		Scenario: "zoned-mini", Things: 24, Shape: ShapeZones, Zones: 4, Rate: 4,
		Warmup: 2 * time.Second, Duration: 40 * time.Second, Cooldown: 10 * time.Second,
		Seed: 42, StreamPeriod: 2 * time.Second, RequestTimeout: 500 * time.Millisecond,
		LossRate: 0.02,
		Mix:      mixOf(50, 10, 5, 15, 15, 5),
	}
}

// TestZonedCrossClockByteIdentity is the determinism cross-check the CI job
// automates with upnp-load: the identical zoned scenario run on the parallel
// sharded schedule and on the sequential single-loop schedule (ShardWorkers=1)
// must serialize to byte-identical result JSON — run hash, per-op stats, and
// latency histograms included.
func TestZonedCrossClockByteIdentity(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))

	cfg := miniZonedCfg()
	if err := cfg.normalize(); err != nil {
		t.Fatal(err)
	}
	par := cfg
	par.ShardWorkers = 0 // parallel rounds (GOMAXPROCS workers)
	seq := cfg
	seq.ShardWorkers = 1 // the sequential single-loop schedule

	_, parRes, err := run(par)
	if err != nil {
		t.Fatal(err)
	}
	_, seqRes, err := run(seq)
	if err != nil {
		t.Fatal(err)
	}
	if parRes.Issued == 0 || parRes.Completed == 0 {
		t.Fatalf("zoned run issued %d / completed %d ops", parRes.Issued, parRes.Completed)
	}
	if parRes.Zones != par.Zones {
		t.Fatalf("result records %d zones, want %d", parRes.Zones, par.Zones)
	}
	jp, err := json.MarshalIndent(parRes, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	js, err := json.MarshalIndent(seqRes, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(jp, js) {
		t.Fatalf("result JSON diverged across clock modes:\nparallel:\n%s\nsingle-loop:\n%s", jp, js)
	}
}

// TestZonedPreset ensures the shipped "zoned" preset normalizes onto the
// sharded clock and that the zones shape defaults a lane count.
func TestZonedPreset(t *testing.T) {
	cfg, err := Preset("zoned")
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Shape != ShapeZones || cfg.Zones <= 1 {
		t.Fatalf("zoned preset: shape=%q zones=%d", cfg.Shape, cfg.Zones)
	}
	bare := Config{Scenario: "z", Things: 8, Shape: ShapeZones, Rate: 1,
		Duration: time.Second, Mix: mixOf(100, 0, 0, 0, 0, 0)}
	if err := bare.normalize(); err != nil {
		t.Fatal(err)
	}
	if bare.Zones <= 1 {
		t.Fatalf("zones shape did not default a lane count: %d", bare.Zones)
	}
}

// TestStreamGroupsDistinctInLargestZonedPreset: every (Thing, channel) of
// the zoned preset with the most Things, over all its deployments, has a
// stream group of its own, and none of them parses as a peripheral group.
func TestStreamGroupsDistinctInLargestZonedPreset(t *testing.T) {
	var cfg Config
	for _, name := range Scenarios() {
		if c, err := Preset(name); err == nil && c.Shape == ShapeZones && c.Things > cfg.Things {
			cfg = c
		}
	}
	if err := cfg.normalize(); err != nil {
		t.Fatal(err)
	}
	seen := map[netip.Addr]netip.Addr{}
	sites := max(cfg.Deployments, 1)
	for site := range sites {
		d, err := micropnp.NewDeployment(deployOpts(cfg, cfg.Seed, site)...)
		if err != nil {
			t.Fatal(err)
		}
		defer d.Close()
		c := cfg
		c.Things = cfg.Things / sites
		targets, _, err := buildTopology(d, c)
		if err != nil {
			t.Fatal(err)
		}
		for _, tg := range targets {
			for ch := range hw.DefaultChannels {
				g := netsim.StreamGroup(tg.addr, ch)
				if prev, dup := seen[g]; dup {
					t.Fatalf("%s: Things %v and %v share stream group %v", cfg.Scenario, prev, tg.addr, g)
				}
				if _, _, _, err := netsim.ParseMulticastZone(g); err == nil {
					t.Fatalf("%s: stream group %v parses as a peripheral group", cfg.Scenario, g)
				}
				seen[g] = tg.addr
			}
		}
	}
	if want := (cfg.Things / sites) * sites * hw.DefaultChannels; len(seen) != want {
		t.Fatalf("%s: %d stream groups, want %d", cfg.Scenario, len(seen), want)
	}
}
