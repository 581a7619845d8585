package loadgen

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"
)

// Op is one workload operation kind, all issued through the public SDK.
type Op int

const (
	// OpRead is a unicast peripheral read (Client.ReadInto with a recycled
	// scratch buffer, so the generator adds no per-read value allocation).
	OpRead Op = iota
	// OpWrite writes a value to a relay bank (Client.Write).
	OpWrite
	// OpDiscover multicasts a typed discovery; it completes when the
	// discovery window (the deployment request timeout) closes, so its
	// latency is the window by construction — it is in the mix for the
	// fan-out load it imposes, not for its own percentiles.
	OpDiscover
	// OpSubscribe establishes a peripheral stream (latency = establishment
	// round trip), holds it for SubHold of virtual time while stream data
	// flows, then closes it.
	OpSubscribe
	// OpHotSwap unplugs a Thing's sensor and plugs the next kind in the
	// cycle; latency = unplug to the new peripheral's advertisement.
	OpHotSwap
	// OpDrivers asks a Thing for its installed drivers through the manager
	// (Deployment.DiscoverDrivers).
	OpDrivers
	opKinds
)

var opNames = [opKinds]string{"read", "write", "discover", "subscribe", "hotswap", "discover_drivers"}

// String returns the op's JSON/CLI name.
func (o Op) String() string {
	if o < 0 || o >= opKinds {
		return "?"
	}
	return opNames[o]
}

// Mix assigns relative weights to operation kinds; zero-weight kinds are
// never issued.
type Mix [opKinds]int

func (m Mix) total() int {
	t := 0
	for _, w := range m {
		t += w
	}
	return t
}

// String renders the mix in the CLI's read=60,write=10,... form.
func (m Mix) String() string {
	var parts []string
	for op, w := range m {
		if w > 0 {
			parts = append(parts, fmt.Sprintf("%s=%d", Op(op), w))
		}
	}
	return strings.Join(parts, ",")
}

// ParseMix parses a read=60,write=10,... weight list.
func ParseMix(s string) (Mix, error) {
	var m Mix
	byName := map[string]Op{}
	for op, name := range opNames {
		byName[name] = Op(op)
	}
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, val, ok := strings.Cut(part, "=")
		if !ok {
			return Mix{}, fmt.Errorf("loadgen: bad mix entry %q (want op=weight)", part)
		}
		op, known := byName[strings.TrimSpace(name)]
		if !known {
			names := append([]string(nil), opNames[:]...)
			sort.Strings(names)
			return Mix{}, fmt.Errorf("loadgen: unknown op %q (known: %s)", name, strings.Join(names, ", "))
		}
		w, err := strconv.Atoi(strings.TrimSpace(val))
		if err != nil || w < 0 {
			return Mix{}, fmt.Errorf("loadgen: bad weight in %q", part)
		}
		m[op] = w
	}
	if m.total() == 0 {
		return Mix{}, fmt.Errorf("loadgen: mix %q has no positive weights", s)
	}
	return m, nil
}

// Arrival selects the arrival process family.
type Arrival int

const (
	// ArrivalOpen issues operations at schedule-driven instants regardless
	// of completions (Poisson or fixed-rate), the model for externally
	// imposed traffic.
	ArrivalOpen Arrival = iota
	// ArrivalClosed runs a fixed worker population, each issuing its next
	// operation a think time after the previous one completed.
	ArrivalClosed
)

// String names the arrival process.
func (a Arrival) String() string {
	if a == ArrivalClosed {
		return "closed"
	}
	return "open"
}

// Process selects the open-loop inter-arrival distribution.
type Process int

const (
	// ProcessPoisson draws exponential inter-arrival gaps (memoryless
	// arrivals at the configured mean rate).
	ProcessPoisson Process = iota
	// ProcessFixed spaces arrivals exactly 1/rate apart.
	ProcessFixed
)

// String names the process.
func (p Process) String() string {
	if p == ProcessFixed {
		return "fixed"
	}
	return "poisson"
}

// Shape selects the deployment topology, mirroring the shapes the scale
// test-suite exercises.
type Shape string

const (
	// ShapeWide attaches every Thing one hop from the manager (worst-case
	// multicast fan-out).
	ShapeWide Shape = "wide"
	// ShapeDeep deepens a chain every 10 Things (worst-case path length).
	ShapeDeep Shape = "deep"
	// ShapeBranches grows three subtrees, one sensor kind per branch,
	// deepening every 20 (several concurrent multicast groups).
	ShapeBranches Shape = "branches"
	// ShapeZones builds one flat subtree per address zone (zone roots one
	// hop from the manager), Things round-robin across zones — the
	// topology for zone-sharded (Config.Zones) runs: intra-zone traffic
	// stays on one event lane. Location zones are 1-based; zone 0 is the
	// manager/client (control) zone.
	ShapeZones Shape = "zones"
)

// Config parameterizes one load run. Zero values take the documented
// defaults in normalize.
type Config struct {
	// Scenario labels the run in the result JSON.
	Scenario string
	// Things is the deployment size; Shape picks the topology.
	Things int
	Shape  Shape
	// Clients is the number of SDK clients requests are spread across.
	Clients int

	// Arrival, Process, Rate (ops per virtual second), Workers and Think
	// configure the arrival process (open: Process+Rate; closed:
	// Workers+Think).
	Arrival Arrival
	Process Process
	Rate    float64
	Workers int
	Think   time.Duration

	// Warmup, Duration, Cooldown are the run phases in virtual time:
	// operations arriving during the warmup are executed but not recorded,
	// the measure window spans Duration, and the cooldown bounds the final
	// drain of in-flight work.
	Warmup   time.Duration
	Duration time.Duration
	Cooldown time.Duration

	// Seed drives every random choice (arrival gaps, op and target picks,
	// the deployment's loss/jitter stream). Same seed + same config ⇒ same
	// op schedule, and in virtual mode bit-identical results.
	Seed int64
	Mix  Mix

	// Realtime runs the deployment on the wall clock (TimeScale compresses
	// virtual time; PoolWorkers bounds the network handler pool).
	Realtime    bool
	TimeScale   float64
	PoolWorkers int

	// Deployment knobs: StreamPeriod for subscription streams,
	// RequestTimeout for request deadlines (and hence the discovery
	// window), LossRate for lossy-network runs, SubHold for how long a
	// subscription stays open.
	StreamPeriod   time.Duration
	RequestTimeout time.Duration
	LossRate       float64
	SubHold        time.Duration

	// MaxInFlight bounds concurrently executing open-loop operations in
	// realtime mode; arrivals past the bound are counted as shed instead of
	// spawning unboundedly under overload.
	MaxInFlight int

	// Zones > 1 runs the deployment on the zone-sharded parallel clock
	// with that many address zones (virtual mode only; ignored with
	// Realtime). Use with ShapeZones so Things actually spread across the
	// zone lanes. ShardWorkers bounds the sharded clock's round
	// parallelism: 0 = GOMAXPROCS, 1 = the sequential single-loop schedule
	// — the determinism cross-check mode, bit-identical to any parallel
	// run of the same config.
	Zones        int
	ShardWorkers int

	// Deployments > 1 federates that many virtual deployments (sites
	// 0..N-1, distinct /48 prefixes) behind one micropnp.Fleet and routes
	// every workload operation through the fleet surface. Things spread
	// round-robin across the members. One arrival loop issues the whole
	// schedule and waits for each arrival by stepping the member clocks
	// round-robin in 250ms quanta (the fleet conductor), so the run stays a
	// pure function of the config at any ShardWorkers (virtual, open-loop
	// only).
	// Managers sets the per-deployment manager redundancy (anycast
	// instances; default 1). ManagerFailAt, when positive, crashes manager
	// 0 of deployment 0 at exactly that offset into the workload — the
	// deterministic failover-under-load scenario (requires Managers >= 2
	// so the anycast has a survivor).
	Deployments   int
	Managers      int
	ManagerFailAt time.Duration

	// Target switches Run to the HTTP client mode: operations are issued as
	// REST calls against a running gateway (cmd/upnp-gateway) at this base
	// URL instead of in-process SDK calls. Only the read, write and discover
	// weights of the mix apply; HTTPOps is the total operation count, split
	// across Workers lanes (HTTP mode is count-based — the gateway owns the
	// clock). Latency is the gateway's X-Upnp-Virtual-Ns span.
	Target  string
	HTTPOps int
}

// Scenarios returns the preset names, sorted.
func Scenarios() []string {
	names := make([]string, 0, len(presets))
	for name := range presets {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

var presets = map[string]Config{
	// smoke: the small deterministic scenario CI gates on — every op kind,
	// modest rate, a couple of minutes of virtual time.
	"smoke": {
		Things: 12, Shape: ShapeWide, Rate: 3, Warmup: 10 * time.Second,
		Duration: 150 * time.Second, Cooldown: 30 * time.Second,
		StreamPeriod: 5 * time.Second, RequestTimeout: time.Second,
		Mix: mixOf(60, 10, 5, 10, 10, 5),
	},
	// steady: a larger read-heavy steady state, the push-to-main realtime
	// scenario.
	"steady": {
		Things: 100, Shape: ShapeBranches, Rate: 3, Warmup: 20 * time.Second,
		Duration: 300 * time.Second, Cooldown: 60 * time.Second,
		StreamPeriod: 10 * time.Second, RequestTimeout: 2 * time.Second,
		Mix: mixOf(70, 10, 5, 10, 0, 5),
	},
	// churn: hot-swap-heavy — group membership, SMRF plan splicing and
	// advertisement traffic under sustained peripheral churn.
	"churn": {
		Things: 60, Shape: ShapeWide, Rate: 3, Warmup: 10 * time.Second,
		Duration: 200 * time.Second, Cooldown: 60 * time.Second,
		StreamPeriod: 5 * time.Second, RequestTimeout: time.Second,
		Mix: mixOf(45, 5, 10, 5, 30, 5),
	},
	// http-smoke: the HTTP client mode's CI scenario — a single lane of
	// reads, writes and discoveries against a running gateway (set Target
	// or pass -target). Single-lane so a quiet virtual-mode gateway yields
	// a bit-deterministic percentile report.
	"http-smoke": {
		HTTPOps: 200, Workers: 1,
		Mix: mixOf(70, 20, 10, 0, 0, 0),
	},
	// zoned: the zone-sharded scenario — per-zone subtrees driven on the
	// parallel sharded clock, with loss riding the per-zone RNG streams and
	// hot-swaps churning group membership across zone boundaries. The
	// golden test pins its result JSON digest at several shard worker
	// counts, the single-loop schedule included.
	"zoned": {
		Things: 240, Shape: ShapeZones, Zones: 8, Rate: 6,
		Warmup: 10 * time.Second, Duration: 180 * time.Second, Cooldown: 45 * time.Second,
		StreamPeriod: 5 * time.Second, RequestTimeout: time.Second,
		LossRate: 0.02,
		Mix:      mixOf(55, 10, 5, 10, 15, 5),
	},
	// fleet: the federation scenario — three virtual deployments (sites
	// 0..2, two anycast manager instances each) behind one Fleet, zoned
	// topologies inside every member, and a manager crash a third of the
	// way into the measure window. The CI fleet job gates its latency
	// percentiles (LOAD_fleet_baseline.json); the golden test pins its
	// result JSON digest across sharded-clock worker counts.
	"fleet": {
		Deployments: 3, Managers: 2, ManagerFailAt: 60 * time.Second,
		Things: 90, Shape: ShapeZones, Zones: 4, Rate: 3,
		Warmup: 10 * time.Second, Duration: 150 * time.Second, Cooldown: 45 * time.Second,
		StreamPeriod: 5 * time.Second, RequestTimeout: time.Second,
		LossRate: 0.02,
		Mix:      mixOf(55, 10, 5, 10, 15, 5),
	},
	// fanout: discovery- and subscription-heavy on a wide topology — the
	// multicast fan-out stress.
	"fanout": {
		Things: 150, Shape: ShapeWide, Rate: 1.5, Warmup: 10 * time.Second,
		Duration: 400 * time.Second, Cooldown: 60 * time.Second,
		StreamPeriod: 5 * time.Second, RequestTimeout: time.Second,
		Mix: mixOf(20, 0, 50, 30, 0, 0),
	},
}

func mixOf(read, write, discover, subscribe, hotswap, drivers int) Mix {
	var m Mix
	m[OpRead], m[OpWrite], m[OpDiscover] = read, write, discover
	m[OpSubscribe], m[OpHotSwap], m[OpDrivers] = subscribe, hotswap, drivers
	return m
}

// Preset returns a named scenario configuration.
func Preset(name string) (Config, error) {
	cfg, ok := presets[name]
	if !ok {
		return Config{}, fmt.Errorf("loadgen: unknown scenario %q (known: %s)", name, strings.Join(Scenarios(), ", "))
	}
	cfg.Scenario = name
	return cfg, nil
}

// normalize fills defaults and validates.
func (cfg *Config) normalize() error {
	if cfg.Scenario == "" {
		cfg.Scenario = "custom"
	}
	if cfg.Things <= 0 {
		cfg.Things = 12
	}
	switch cfg.Shape {
	case "":
		cfg.Shape = ShapeWide
	case ShapeWide, ShapeDeep, ShapeBranches:
	case ShapeZones:
		if cfg.Zones <= 1 {
			cfg.Zones = 4
		}
	default:
		return fmt.Errorf("loadgen: unknown shape %q", cfg.Shape)
	}
	if cfg.Clients <= 0 {
		cfg.Clients = 1
	}
	if cfg.Arrival == ArrivalOpen && cfg.Rate <= 0 {
		cfg.Rate = 4
	}
	if cfg.Arrival == ArrivalClosed {
		if cfg.Workers <= 0 {
			cfg.Workers = 4
		}
		if cfg.Think <= 0 {
			cfg.Think = 200 * time.Millisecond
		}
	}
	if cfg.Duration <= 0 {
		cfg.Duration = 60 * time.Second
	}
	if cfg.Cooldown <= 0 {
		cfg.Cooldown = 30 * time.Second
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if cfg.Mix.total() == 0 {
		cfg.Mix = mixOf(60, 10, 5, 10, 10, 5)
	}
	if cfg.StreamPeriod <= 0 {
		cfg.StreamPeriod = 5 * time.Second
	}
	if cfg.RequestTimeout <= 0 {
		cfg.RequestTimeout = time.Second
	}
	if cfg.SubHold <= 0 {
		cfg.SubHold = 2*cfg.StreamPeriod + cfg.StreamPeriod/2
	}
	if cfg.Realtime && cfg.TimeScale <= 0 {
		cfg.TimeScale = 50
	}
	if cfg.MaxInFlight <= 0 {
		cfg.MaxInFlight = 4096
	}
	if cfg.Deployments <= 0 {
		cfg.Deployments = 1
	}
	if cfg.Managers <= 0 {
		cfg.Managers = 1
	}
	if cfg.Deployments > 1 {
		if cfg.Realtime {
			return fmt.Errorf("loadgen: fleet runs (Deployments > 1) are virtual-mode only")
		}
		if cfg.Arrival != ArrivalOpen {
			return fmt.Errorf("loadgen: fleet runs (Deployments > 1) need open-loop arrivals")
		}
		if cfg.Target != "" {
			return fmt.Errorf("loadgen: fleet runs cannot use the HTTP client mode")
		}
	}
	if cfg.ManagerFailAt > 0 {
		if cfg.Managers < 2 {
			return fmt.Errorf("loadgen: ManagerFailAt needs Managers >= 2, so the anycast keeps a survivor")
		}
		if cfg.Realtime {
			return fmt.Errorf("loadgen: ManagerFailAt is virtual-mode only")
		}
		if cfg.Arrival != ArrivalOpen {
			return fmt.Errorf("loadgen: ManagerFailAt needs open-loop arrivals")
		}
		if cfg.Deployments == 1 && cfg.Zones > 1 {
			return fmt.Errorf("loadgen: ManagerFailAt needs a single arrival strand to inject the crash; a zoned single-deployment run splits its arrivals across one strand per lane group")
		}
	}
	if cfg.Target != "" {
		if cfg.HTTPOps <= 0 {
			cfg.HTTPOps = 200
		}
		if cfg.Workers <= 0 {
			cfg.Workers = 1
		}
	}
	return nil
}
