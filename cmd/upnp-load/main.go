// Command upnp-load drives a simulated µPnP deployment with a configurable
// workload — open-loop (Poisson or fixed-rate) or closed-loop (worker
// population with think time) arrivals over a weighted mix of SDK
// operations — and reports per-operation latency percentiles, throughput
// and error counters, as a human-readable table and as machine-readable
// JSON (LOAD_result.json) for the CI latency gate (cmd/benchgate -latency).
//
// Usage:
//
//	upnp-load [-scenario smoke|steady|churn|zoned|fleet|fanout|http-smoke] [-things N] [-shape wide|deep|branches|zones]
//	          [-rate R | -workers W -think D] [-mix read=60,write=10,...]
//	          [-warmup D] [-duration D] [-cooldown D] [-seed S] [-loss P]
//	          [-zones Z] [-shard-workers W]
//	          [-deployments N] [-managers M] [-fail-at D]
//	          [-realtime] [-timescale X] [-clients N] [-out FILE]
//	          [-target http://HOST:PORT [-ops N]]
//
// -zones > 1 runs the deployment on the zone-sharded clock, -shard-workers
// bounding its round parallelism (1 = the sequential single-loop schedule);
// the result JSON is byte-identical at every -shard-workers value.
//
// -deployments > 1 federates that many virtual deployments (distinct sites)
// behind one micropnp.Fleet and routes the whole workload through the fleet
// surface: one arrival loop waits for each arrival by stepping the member
// clocks round-robin in 250ms quanta (the fleet conductor) — still
// bit-deterministic per (scenario, seed), at any -shard-workers value.
// -managers sets per-deployment anycast manager redundancy, and -fail-at
// crashes manager 0 of deployment 0 that far into the workload (the
// deterministic failover-under-load scenario; the "fleet" preset does all
// three).
//
// -target switches to the HTTP client mode: instead of building an
// in-process deployment, the reads, writes and discoveries of the mix are
// issued as REST calls against a running cmd/upnp-gateway, and latency is
// the gateway's X-Upnp-Virtual-Ns virtual-time span. Against a quiet
// virtual-mode gateway the single-lane http-smoke scenario is deterministic
// and CI gates its p99s (LOAD_http_baseline.json).
//
// Virtual-mode runs (the default) are deterministic: a single deployment's
// ops issue from cooperative strands under Deployment.Conduct (one per zone
// lane group for an open loop, one for a closed loop), which interleave by
// virtual time and strand index only, so the same scenario and seed
// reproduce the op schedule and every histogram bit for bit, on any machine
// — which is what lets CI gate latency percentiles against a committed
// baseline. -realtime runs the same schedule concurrently against
// the wall clock (compressed by -timescale) and measures real latencies.
//
// Examples:
//
//	go run ./cmd/upnp-load -scenario smoke -out LOAD_result.json
//	go run ./cmd/upnp-load -scenario smoke -realtime -timescale 50
//	go run ./cmd/upnp-load -scenario steady -workers 8 -think 100ms
//	go run ./cmd/benchgate -latency -baseline LOAD_baseline.json -input LOAD_result.json
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"micropnp/internal/loadgen"
)

func main() {
	var (
		scenario     = flag.String("scenario", "smoke", "preset: "+strings.Join(loadgen.Scenarios(), "|"))
		things       = flag.Int("things", 0, "override deployment size")
		shape        = flag.String("shape", "", "override topology: wide|deep|branches|zones")
		clients      = flag.Int("clients", 0, "override client count")
		rate         = flag.Float64("rate", 0, "override open-loop arrival rate (ops per virtual second)")
		process      = flag.String("process", "", "open-loop inter-arrival process: poisson|fixed")
		workers      = flag.Int("workers", 0, "run closed-loop with this worker population instead of open-loop")
		think        = flag.Duration("think", 0, "closed-loop think time between a completion and the next issue (virtual)")
		mix          = flag.String("mix", "", "override op mix, e.g. read=60,write=10,discover=5,subscribe=10,hotswap=10,discover_drivers=5")
		warmup       = flag.Duration("warmup", -1, "override warmup span (virtual; ops run unrecorded)")
		duration     = flag.Duration("duration", 0, "override measure window (virtual)")
		cooldown     = flag.Duration("cooldown", 0, "override drain horizon after the window (virtual)")
		seed         = flag.Int64("seed", 0, "override workload seed (0 keeps the preset's)")
		loss         = flag.Float64("loss", 0, "per-hop frame loss probability")
		zones        = flag.Int("zones", 0, "override zone-sharded lane count (>1 runs the parallel clock; virtual mode only)")
		shardWorkers = flag.Int("shard-workers", 0, "sharded round parallelism: 0 = GOMAXPROCS, 1 = the sequential single-loop schedule (determinism cross-check mode)")
		deployments  = flag.Int("deployments", 0, "federate this many virtual deployments behind one Fleet (>1; virtual open-loop only)")
		managers     = flag.Int("managers", 0, "per-deployment anycast manager redundancy (default 1)")
		failAt       = flag.Duration("fail-at", 0, "crash manager 0 of deployment 0 this far into the workload (virtual; needs -managers >= 2)")
		realtime     = flag.Bool("realtime", false, "run on the wall clock (concurrent runtime) instead of the deterministic virtual clock")
		timescale    = flag.Float64("timescale", 0, "virtual seconds per wall second in -realtime mode (preset default 50)")
		target       = flag.String("target", "", "HTTP client mode: drive a running cmd/upnp-gateway at this base URL instead of an in-process deployment")
		ops          = flag.Int("ops", 0, "HTTP mode: total operations to issue (default 200)")
		out          = flag.String("out", "LOAD_result.json", "write the JSON result here (\"-\" for stdout, \"\" to skip)")
		quiet        = flag.Bool("q", false, "suppress the human-readable summary")
	)
	flag.Parse()

	cfg, err := loadgen.Preset(*scenario)
	if err != nil {
		fmt.Fprintln(os.Stderr, "upnp-load:", err)
		os.Exit(2)
	}
	if *things > 0 {
		cfg.Things = *things
	}
	if *shape != "" {
		cfg.Shape = loadgen.Shape(*shape)
	}
	if *clients > 0 {
		cfg.Clients = *clients
	}
	if *rate > 0 {
		cfg.Rate = *rate
	}
	switch *process {
	case "":
	case "poisson":
		cfg.Process = loadgen.ProcessPoisson
	case "fixed":
		cfg.Process = loadgen.ProcessFixed
	default:
		fmt.Fprintf(os.Stderr, "upnp-load: unknown process %q\n", *process)
		os.Exit(2)
	}
	if *workers > 0 {
		cfg.Arrival = loadgen.ArrivalClosed
		cfg.Workers = *workers
	}
	if *think > 0 {
		cfg.Think = *think
	}
	if *mix != "" {
		if cfg.Mix, err = loadgen.ParseMix(*mix); err != nil {
			fmt.Fprintln(os.Stderr, "upnp-load:", err)
			os.Exit(2)
		}
	}
	if *warmup >= 0 {
		cfg.Warmup = *warmup
	}
	if *duration > 0 {
		cfg.Duration = *duration
	}
	if *cooldown > 0 {
		cfg.Cooldown = *cooldown
	}
	if *seed != 0 {
		cfg.Seed = *seed
	}
	if *loss > 0 {
		cfg.LossRate = *loss
	}
	if *zones > 0 {
		cfg.Zones = *zones
	}
	if *shardWorkers > 0 {
		cfg.ShardWorkers = *shardWorkers
	}
	if *deployments > 0 {
		cfg.Deployments = *deployments
	}
	if *managers > 0 {
		cfg.Managers = *managers
	}
	if *failAt > 0 {
		cfg.ManagerFailAt = *failAt
	}
	cfg.Realtime = *realtime
	if *timescale > 0 {
		cfg.TimeScale = *timescale
	}
	cfg.Target = *target
	if *ops > 0 {
		cfg.HTTPOps = *ops
	}

	started := time.Now()
	res, err := loadgen.Run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "upnp-load:", err)
		os.Exit(1)
	}
	if !*quiet {
		res.Summarize(os.Stdout)
		fmt.Printf("wall time %.2fs\n", time.Since(started).Seconds())
	}
	if *out != "" {
		if err := res.WriteJSON(*out); err != nil {
			fmt.Fprintln(os.Stderr, "upnp-load:", err)
			os.Exit(1)
		}
		if *out != "-" && !*quiet {
			fmt.Printf("result written to %s\n", *out)
		}
	}
}
