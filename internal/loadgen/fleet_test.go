package loadgen

import (
	"bytes"
	"encoding/json"
	"runtime"
	"testing"
	"time"
)

// miniFleetCfg is the "fleet" preset shrunk to milliseconds of wall time:
// three federated deployments (two anycast managers each), zoned members on
// the sharded clock, loss on the wire, and a manager crash mid-window.
func miniFleetCfg() Config {
	return Config{
		Scenario: "fleet-mini", Deployments: 3, Managers: 2,
		ManagerFailAt: 10 * time.Second,
		Things:        18, Shape: ShapeZones, Zones: 2, Rate: 4,
		Warmup: 2 * time.Second, Duration: 40 * time.Second, Cooldown: 10 * time.Second,
		Seed: 42, StreamPeriod: 2 * time.Second, RequestTimeout: 500 * time.Millisecond,
		LossRate: 0.02,
		Mix:      mixOf(50, 10, 5, 15, 15, 5),
	}
}

// TestFleetCrossWorkerByteIdentity is the federation acceptance check: a
// fleet of three virtual deployments — each internally zone-sharded — driven
// through one Fleet with a manager crash mid-run must serialize to
// byte-identical result JSON under the parallel and the sequential
// single-loop shard schedule. The conductor steps member clocks round-robin;
// worker counts shape only each member's internal round execution.
func TestFleetCrossWorkerByteIdentity(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))

	cfg := miniFleetCfg()
	if err := cfg.normalize(); err != nil {
		t.Fatal(err)
	}
	par := cfg
	par.ShardWorkers = 0 // parallel rounds (GOMAXPROCS workers)
	seq := cfg
	seq.ShardWorkers = 1 // the sequential single-loop schedule

	parRun, parRes, err := run(par)
	if err != nil {
		t.Fatal(err)
	}
	_, seqRes, err := run(seq)
	if err != nil {
		t.Fatal(err)
	}
	if parRes.Issued == 0 || parRes.Completed == 0 {
		t.Fatalf("fleet run issued %d / completed %d ops", parRes.Issued, parRes.Completed)
	}
	if parRes.Deployments != 3 || parRes.Managers != 2 {
		t.Fatalf("result records %d deployments × %d managers, want 3 × 2", parRes.Deployments, parRes.Managers)
	}
	if parRes.ManagerFailNs != int64(cfg.ManagerFailAt) {
		t.Fatalf("result records crash offset %d ns, want %d", parRes.ManagerFailNs, int64(cfg.ManagerFailAt))
	}
	// Every member must have carried real traffic, and the injected crash
	// must have landed (member 0's first manager down, with a survivor).
	if len(parRun.deps) != 3 {
		t.Fatalf("runner built %d deployments, want 3", len(parRun.deps))
	}
	for i, d := range parRun.deps {
		if d.NetworkStats().Delivered == 0 {
			t.Fatalf("fleet member %d saw no traffic", i)
		}
	}
	if !parRun.failedMgr {
		t.Fatal("ManagerFailAt never fired inside the workload")
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
		t.Fatalf("fleet result JSON diverged across shard worker counts:\nparallel:\n%s\nsingle-loop:\n%s", jp, js)
	}
}

// TestFleetPreset pins the shipped "fleet" preset: a ≥3-member federation
// with manager redundancy and a mid-run crash, normalizing clean.
func TestFleetPreset(t *testing.T) {
	cfg, err := Preset("fleet")
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Deployments < 3 || cfg.Managers < 2 || cfg.ManagerFailAt <= 0 {
		t.Fatalf("fleet preset: deployments=%d managers=%d failAt=%s",
			cfg.Deployments, cfg.Managers, cfg.ManagerFailAt)
	}
	if err := cfg.normalize(); err != nil {
		t.Fatal(err)
	}
}

// TestFleetConfigValidation pins the fleet mode's constraints: virtual-mode
// open-loop only, a crash needs an anycast survivor, and a crash needs a
// single arrival strand to inject it.
func TestFleetConfigValidation(t *testing.T) {
	base := miniFleetCfg()

	rt := base
	rt.Realtime = true
	if err := rt.normalize(); err == nil {
		t.Fatal("realtime fleet config must not normalize")
	}

	closed := base
	closed.Arrival = ArrivalClosed
	if err := closed.normalize(); err == nil {
		t.Fatal("closed-loop fleet config must not normalize")
	}

	lone := base
	lone.Managers = 1
	if err := lone.normalize(); err == nil {
		t.Fatal("ManagerFailAt without a survivor must not normalize")
	}

	split := base
	split.Deployments = 1
	if err := split.normalize(); err == nil {
		t.Fatal("ManagerFailAt on a zoned single deployment must not normalize: its arrivals split across lane-group strands, and only a single arrival strand injects the crash")
	}
}
