// Package micropnp is the public SDK of the µPnP reproduction: a Go API for
// programming against simulated µPnP deployments — plug-and-play peripheral
// networks in the style of "µPnP: Plug and Play Peripherals for the Internet
// of Things" (Yang et al., EuroSys 2015).
//
// A Deployment bundles a simulated IPv6 mesh, a µPnP manager serving the
// standard driver repository, and a shared physical environment. Things host
// peripherals; Clients discover and use them through synchronous,
// context-aware calls that drive the discrete-event simulator under the
// hood and return real errors:
//
//	d, _ := micropnp.NewDeployment(micropnp.WithSeed(7))
//	th, _ := d.AddThing("kitchen")
//	cl, _ := d.AddClient()
//	th.PlugTMP36(0)
//	d.Run() // identification, OTA driver install, advertisement
//
//	r, err := cl.Read(context.Background(), th.Addr(), micropnp.TMP36)
//	if err != nil { ... }                     // loss and absence surface as errors
//	fmt.Println(r.Values[0], r.Units, r.At)   // 238 0.1°C 1.08s
//
// # Runtime modes
//
// A Deployment runs in one of two clock modes:
//
//   - Virtual (the default): the simulator's clock advances only while
//     calls drive it, so programs are deterministic and fast regardless of
//     how much simulated time passes. Context deadlines are translated to
//     virtual-time budgets; cancellation is honoured between simulation
//     steps.
//   - Real time (WithRealTime): the network event loop runs on its own
//     goroutine against the wall clock, handlers dispatch from a bounded
//     worker pool, and calls genuinely block on channels — so hundreds of
//     goroutines can issue requests against one deployment concurrently.
//     WithTimeScale compresses virtual time for accelerated runs.
//     Determinism is traded away; remember to Close the deployment.
//
// A Deployment and its Things and Clients are safe for concurrent use in
// both modes; only the realtime mode executes handlers in parallel.
//
// The implementation lives under internal/ (see the repository README for a
// tour); this package is the only importable surface.
package micropnp

import (
	"context"
	"fmt"
	"net/netip"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"micropnp/internal/client"
	"micropnp/internal/core"
	"micropnp/internal/energy"
	"micropnp/internal/hw"
	"micropnp/internal/netsim"
	"micropnp/internal/thing"
)

// Option configures a Deployment (functional options).
type Option func(*config)

type config struct {
	core    core.DeploymentConfig
	timeout time.Duration
}

// WithLossRate sets the per-hop frame loss probability (0..1).
func WithLossRate(p float64) Option {
	return func(c *config) { c.core.LossRate = p }
}

// WithProcJitter adds relative per-delivery latency noise (e.g. 0.05 for
// ±5%), modelling CSMA backoff and stack scheduling variance.
func WithProcJitter(p float64) Option {
	return func(c *config) { c.core.ProcJitter = p }
}

// WithSeed selects the random stream for loss and jitter sampling, making
// lossy runs reproducible. Zero keeps the fixed default stream.
func WithSeed(seed int64) Option {
	return func(c *config) { c.core.Seed = seed }
}

// WithStreamPeriod overrides the Things' stream production period
// (default 10 s of virtual time).
func WithStreamPeriod(d time.Duration) Option {
	return func(c *config) { c.core.StreamPeriod = d }
}

// WithRequestTimeout sets the default virtual-time deadline for requests
// issued without a context deadline (default 5 s).
func WithRequestTimeout(d time.Duration) Option {
	return func(c *config) { c.core.RequestTimeout = d; c.timeout = d }
}

// WithRealTime runs the deployment on the wall clock instead of the
// caller-driven virtual clock: the network event loop gets its own
// goroutine, timers fire as real time passes, and handlers dispatch from a
// bounded worker pool, so SDK calls genuinely block and may be issued from
// many goroutines at once. Determinism is traded away. Deployments in this
// mode hold goroutines; call Close when done.
func WithRealTime() Option {
	return func(c *config) { c.core.Realtime = true }
}

// WithTimeScale compresses virtual time relative to wall time in real-time
// mode: at scale s, one wall second covers s seconds of virtual time, so
// the paper's multi-second plug-in sequences and request deadlines play out
// s-fold accelerated. 1 (or 0) runs in real time. Ignored by the virtual
// clock, whose virtual time is unrelated to wall time.
func WithTimeScale(s float64) Option {
	return func(c *config) { c.core.TimeScale = s }
}

// WithZones partitions the deployment into n address zones, each run on its
// own event heap, RNG stream and lock domain by the zone-sharded
// conservative-PDES virtual clock (classic conservative synchronization with
// barrier rounds; see the README's "Zone-sharded simulation" section). Zones
// parallelize across cores while runs stay bit-identical per (topology,
// seed): same delivery order, same stats, same latency histograms as the
// sequential single-loop schedule of the same program. 0 or 1 keeps the
// classic single-loop virtual clock; ignored in real-time mode. Place Things
// in zones with AddThing(name, InZone(z)); the manager and clients live in
// zone 0.
func WithZones(n int) Option {
	return func(c *config) { c.core.Zones = n }
}

// WithShardWorkers bounds the sharded clock's per-round parallelism: 1
// forces the sequential single-loop schedule (bit-identical to any parallel
// run — the determinism cross-check mode), 0 means GOMAXPROCS. In real-time
// mode the same knob bounds the handler worker pool: at most n network
// handlers run concurrently (0 = min(GOMAXPROCS, 8)).
func WithShardWorkers(n int) Option {
	return func(c *config) { c.core.Workers = n }
}

// WithRetryPolicy enables automatic retransmission of unanswered unicast
// reads and writes (the ARQ layer the paper defers): when no reply arrived
// baseBackoff of virtual time after a transmission, the request is resent,
// up to attempts extra transmissions with doubling backoff and ±50% jitter,
// all inside the request's overall deadline. Lost requests then surface as
// ErrTimeout only after every transmission went unanswered. Multicast
// discoveries and stream subscriptions are never retransmitted.
func WithRetryPolicy(attempts int, baseBackoff time.Duration) Option {
	return func(c *config) {
		c.core.Retry = client.RetryPolicy{Attempts: attempts, BaseBackoff: baseBackoff}
	}
}

// WithManagers stands the deployment up with n manager instances behind the
// well-known anycast address instead of one (Section 5 network-level
// redundancy): every management request and OTA driver install routes to the
// nearest live instance, and when one fails (FailManager) traffic re-routes
// to the survivors — in-flight driver installs retry through the Things' ARQ
// policy, pending management requests migrate. n < 2 keeps the single
// border-router manager; more instances can be added later with AddManager.
func WithManagers(n int) Option {
	return func(c *config) { c.core.Managers = n }
}

// WithSite places the deployment on its own 48-bit network prefix: site 0
// (the default) is the classic 2001:db8::/48, site k occupies
// 2001:db8:k::/48 — manager, anycast, Things and multicast groups included.
// Deployments federated behind one Fleet must use distinct sites so a
// Thing's address identifies its deployment.
func WithSite(site int) Option {
	return func(c *config) { c.core.Site = site }
}

// Deployment is a complete simulated µPnP network: one manager at the
// border-router position serving the standard driver repository, plus the
// Things and Clients added to it. A Deployment is safe for concurrent use:
// in virtual mode concurrent blocked calls elect one goroutine to drive the
// simulator while the others park on their completion channels; in
// real-time mode every call simply blocks until its reply arrives.
type Deployment struct {
	core     *core.Deployment
	timeout  time.Duration
	realtime bool
	scale    float64

	// pumpMu elects the single virtual-mode simulator driver; stepMu/stepCh
	// broadcast simulation progress to parked waiters (the channel is closed
	// and replaced on each broadcast). waiters counts goroutines that may
	// park on stepCh, so the driver skips the broadcast entirely in the
	// common single-goroutine case. driverGid records the driver's
	// goroutine, letting SDK calls made from inside a simulator-driven
	// callback (OnReading, OnAdvert, ScheduleAfter closures) detect the
	// reentrancy and pump directly instead of parking on themselves.
	pumpMu    sync.Mutex
	stepMu    sync.Mutex
	stepCh    chan struct{}
	waiters   atomic.Int32
	driverGid atomic.Int64

	// conduct publishes the active Conduct call's strand registry; SDK calls
	// made on a strand goroutine divert into the baton protocol instead of
	// the driver election (see conduct.go).
	conduct atomic.Pointer[conductor]

	// closeCh unblocks realtime calls parked in await when the deployment
	// is closed (their expiry events die with the clock).
	closeCh   chan struct{}
	closeOnce sync.Once
}

// NewDeployment builds a deployment.
func NewDeployment(opts ...Option) (*Deployment, error) {
	var cfg config
	for _, o := range opts {
		o(&cfg)
	}
	d, err := core.NewDeployment(cfg.core)
	if err != nil {
		return nil, err
	}
	timeout := cfg.timeout
	if timeout <= 0 {
		timeout = client.DefaultTimeout
	}
	scale := cfg.core.TimeScale
	if scale <= 0 {
		scale = 1
	}
	return &Deployment{
		core:     d,
		timeout:  timeout,
		realtime: cfg.core.Realtime,
		scale:    scale,
		stepCh:   make(chan struct{}),
		closeCh:  make(chan struct{}),
	}, nil
}

// Close releases the deployment's runtime resources: in real-time mode it
// stops the network event loop and the worker pool (a handler already
// running finishes first) and discards scheduled events; in virtual mode
// only the bookkeeping applies. Close is idempotent. Calls blocked on
// in-flight requests when Close runs fail with ErrClosed (their expiry
// events die with the clock, so they could never complete).
func (d *Deployment) Close() {
	d.closeOnce.Do(func() { close(d.closeCh) })
	d.core.Close()
}

// Realtime reports whether the deployment runs on the wall clock.
func (d *Deployment) Realtime() bool { return d.realtime }

// ThingOption configures one AddThing call (functional options).
type ThingOption func(*thingConfig)

type thingConfig struct {
	zone   uint16
	parent *Thing
	devs   []DeviceID
}

// InZone places the Thing's address in the given zone. On a sharded
// deployment (WithZones) its deliveries and timers then run on that zone's
// event lane.
func InZone(zone uint16) ThingOption {
	return func(c *thingConfig) { c.zone = zone }
}

// Under attaches the Thing below an existing Thing in the routing tree,
// enabling multi-hop topologies; without it the Thing sits one hop from the
// manager. Combining Under with InZone keeps a zone's Things in a common
// subtree, so intra-zone traffic stays on one event lane.
func Under(parent *Thing) ThingOption {
	return func(c *thingConfig) { c.parent = parent }
}

// WithPeripherals plugs the given peripherals into successive channels
// (device i on channel i) as part of AddThing. Remember to Run the
// deployment afterwards so the plug-in sequences play out. Peripherals whose
// device-side handle matters (the RFID reader's card presenter, the relay
// bank's output observer) are better plugged explicitly via PlugRFID /
// PlugRelay, which return the handle.
func WithPeripherals(devs ...DeviceID) ThingOption {
	return func(c *thingConfig) { c.devs = append(c.devs, devs...) }
}

// AddThing creates a Thing. With no options it sits one hop from the
// manager with no peripherals — configure placement and initial peripherals
// with InZone, Under and WithPeripherals:
//
//	th, _ := d.AddThing("kitchen", micropnp.InZone(3), micropnp.Under(root),
//		micropnp.WithPeripherals(micropnp.TMP36, micropnp.Relay))
func (d *Deployment) AddThing(name string, opts ...ThingOption) (*Thing, error) {
	var cfg thingConfig
	for _, o := range opts {
		o(&cfg)
	}
	var parent *netsim.Node
	if cfg.parent != nil {
		parent = cfg.parent.th.Node()
	}
	var (
		th  *thing.Thing
		err error
	)
	if cfg.zone != 0 {
		th, err = d.core.AddThingInZone(name, cfg.zone, parent)
	} else if parent != nil {
		th, err = d.core.AddThingAt(name, parent)
	} else {
		th, err = d.core.AddThing(name)
	}
	if err != nil {
		return nil, err
	}
	t := &Thing{d: d, th: th}
	for ch, dev := range cfg.devs {
		if err := t.plug(ch, dev); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// AddZonedThing creates a Thing placed in a location zone with the
// structured namespace enabled (the Section 9 extensions): clients can then
// discover its peripherals by device class and by physical location.
func (d *Deployment) AddZonedThing(name string, zone uint16) (*Thing, error) {
	th, err := d.core.AddZonedThing(name, zone)
	if err != nil {
		return nil, err
	}
	return &Thing{d: d, th: th}, nil
}

// AddClient creates a client one hop from the manager.
func (d *Deployment) AddClient() (*Client, error) {
	cl, err := d.core.AddClient()
	if err != nil {
		return nil, err
	}
	return &Client{d: d, cl: cl}, nil
}

// AddClientUnder creates a client attached below a Thing in the routing
// tree.
func (d *Deployment) AddClientUnder(parent *Thing) (*Client, error) {
	cl, err := d.core.AddClientAt(parent.th.Node())
	if err != nil {
		return nil, err
	}
	return &Client{d: d, cl: cl}, nil
}

// Run drives the network until idle — use it after plugging peripherals to
// let the plug-in sequence (identification, driver install, advertisement)
// play out. In real-time mode it blocks until the runtime has drained
// (nothing scheduled, queued or running); do not call it while a stream is
// active in that mode — active streams reschedule forever and never drain.
// Use RunFor to let a fixed span elapse, or Quiesce to drain with a bound.
func (d *Deployment) Run() {
	if d.realtime {
		d.core.Run()
		return
	}
	d.pump(d.core.Run)
}

// RunFor lets a span of virtual time elapse: in virtual mode it drives the
// network inline, in real-time mode it sleeps until the span has passed on
// the (scaled) wall clock. Use it for streams, which reschedule themselves
// and never go idle.
func (d *Deployment) RunFor(span time.Duration) {
	if d.realtime {
		d.core.RunFor(span)
		return
	}
	d.pump(func() { d.core.RunFor(span) })
}

// Quiesce drives the network until idle or until horizon of virtual time has
// elapsed, whichever comes first, and reports whether it went idle. It is
// the bounded drain Run cannot provide while subscriptions are active:
// streams reschedule themselves forever, so a deployment with live streams
// never goes idle — Quiesce lets their traffic (and everything else in
// flight) play out for at most the horizon and then returns, leaving the
// streams ticking. With no streams active it returns true as soon as the
// in-flight cascade drained, which may be well before the horizon.
func (d *Deployment) Quiesce(horizon time.Duration) bool {
	if d.realtime {
		return d.core.Quiesce(horizon)
	}
	var idle bool
	d.pump(func() { idle = d.core.Quiesce(horizon) })
	return idle
}

// pump runs a virtual-mode drive function as the elected driver: it takes
// the driver lock, records its goroutine so nested SDK calls from inside
// handlers pump reentrantly instead of deadlocking, and broadcasts progress
// to parked await waiters afterwards. Called from a handler the current
// driver is running, it drives the core directly — the election is already
// held further up this goroutine's stack.
func (d *Deployment) pump(drive func()) {
	self := gid()
	if d.driverGid.Load() == self {
		drive()
		return
	}
	d.waiters.Add(1)
	defer d.waiters.Add(-1)
	d.pumpMu.Lock()
	d.driverGid.Store(self)
	drive()
	d.driverGid.Store(0)
	d.pumpMu.Unlock()
	d.broadcastStep()
}

// Now returns the current virtual time.
func (d *Deployment) Now() time.Duration { return d.core.Network.Now() }

// ScheduleAfter runs fn after a span of virtual time. Use it to stage
// device-side stimuli — card swipes, environment changes — that should
// occur while a synchronous call is driving the simulator.
func (d *Deployment) ScheduleAfter(delay time.Duration, fn func()) {
	d.core.Network.Schedule(delay, fn)
}

// SetEnvironment updates the shared physical conditions every sensor
// observes: temperature (°C), relative humidity (%) and pressure (Pa).
func (d *Deployment) SetEnvironment(tempC, humidityRH, pressurePa float64) {
	d.core.Env.Set(tempC, humidityRH, pressurePa)
}

// Environment returns the current physical conditions.
func (d *Deployment) Environment() (tempC, humidityRH, pressurePa float64) {
	return d.core.Env.Snapshot()
}

// SetAcceleration updates the acceleration vector (in g) accelerometers
// observe.
func (d *Deployment) SetAcceleration(x, y, z float64) {
	d.core.Env.SetAcceleration(x, y, z)
}

// ManagerUploads returns the number of driver uploads the managers served —
// a cached driver is uploaded at most once per Thing.
func (d *Deployment) ManagerUploads() int { return d.core.Uploads() }

// ManagerCount returns the number of manager instances in the deployment
// (failed ones included — a crashed manager's node stays in the routing
// tree).
func (d *Deployment) ManagerCount() int { return len(d.core.Managers()) }

// AddManager stands up an additional manager instance behind the
// deployment's anycast address (the paper's Section 5 redundancy) and
// returns its index for use with FailManager. Things keep addressing the
// anycast; the network routes each request to the nearest live manager.
func (d *Deployment) AddManager() (int, error) {
	if _, err := d.core.AddManager(); err != nil {
		return 0, err
	}
	return len(d.core.Managers()) - 1, nil
}

// FailManager crashes manager i for fault injection: it leaves the anycast
// group, unbinds its management port (requests reaching it drop as
// NoHandler) and stops sending, though its node keeps relaying frames for
// the subtree beneath it. Pending manager-side requests migrate to a
// surviving manager with a fresh deadline; if none survives they fail with
// ErrTimeout. Things with driver installs in flight recover on their own:
// the install request is retransmitted to the anycast on the ARQ schedule
// and lands on the nearest survivor.
func (d *Deployment) FailManager(i int) error { return d.core.FailManager(i) }

// NetworkStats is a snapshot of network activity counters.
type NetworkStats struct {
	UnicastSent   int
	MulticastSent int
	// Transmissions counts per-hop frame transmissions, the energy-relevant
	// quantity.
	Transmissions int
	Delivered     int
	Lost          int
	// NoHandler counts datagrams dropped at a node because no handler was
	// bound to the destination port.
	NoHandler int

	// Sharded-clock barrier telemetry; zero on non-sharded deployments.
	// All counts are deterministic per schedule, identical across worker
	// counts.
	ShardLanes int // zone lanes (0 = not sharded)
	// ShardRounds counts barrier rounds; ShardEvents the events executed in
	// them, so ShardEvents/ShardRounds is the mean round batch size the
	// lookahead windows achieved.
	ShardRounds int64
	ShardEvents int64
	// ShardLaneRounds sums each round's active-lane count;
	// ShardLaneRounds/(ShardRounds×ShardLanes) is the mean lane occupancy.
	ShardLaneRounds int64
	// ShardCrossMerged counts cross-lane events merged at barriers (summed
	// outbox merge sizes).
	ShardCrossMerged int64
	// ShardCausalityViolations counts merged cross-lane events timestamped
	// before their destination lane's clock — zero when the lookahead bounds
	// are sound.
	ShardCausalityViolations int64
}

// NetworkStats returns a snapshot of the network counters.
func (d *Deployment) NetworkStats() NetworkStats {
	s := d.core.Network.Stats()
	ns := NetworkStats{
		UnicastSent:   s.UnicastSent,
		MulticastSent: s.MulticastSent,
		Transmissions: s.Transmissions,
		Delivered:     s.Delivered,
		Lost:          s.Lost,
		NoHandler:     s.NoHandler,
	}
	if ss, ok := d.core.Network.ShardStats(); ok {
		lanes, _, _ := d.core.Network.Sharded()
		ns.ShardLanes = lanes
		ns.ShardRounds = ss.Rounds
		ns.ShardEvents = ss.Events
		ns.ShardLaneRounds = ss.LaneRounds
		ns.ShardCrossMerged = ss.CrossMerged
		ns.ShardCausalityViolations = ss.CausalityViolations
	}
	return ns
}

// DiscoverDrivers asks a Thing for its installed drivers through the
// manager (protocol messages 6/7).
func (d *Deployment) DiscoverDrivers(ctx context.Context, th *Thing) ([]DeviceID, error) {
	var ids []DeviceID
	cpl, err := d.await(ctx, func(timeout time.Duration, cpl *completion) (retract func()) {
		return d.core.Mgmt().DiscoverDrivers(th.Addr(), timeout, func(got []hw.DeviceID, err error) {
			for _, id := range got {
				ids = append(ids, DeviceID(id))
			}
			cpl.err = err
			cpl.complete()
		})
	})
	if err != nil {
		return nil, err
	}
	derr := cpl.err
	cpl.recycle()
	return ids, derr
}

// RemoveDriver removes a driver from a Thing through the manager (protocol
// messages 8/9), stopping any runtime serving it.
func (d *Deployment) RemoveDriver(ctx context.Context, th *Thing, id DeviceID) error {
	cpl, err := d.await(ctx, func(timeout time.Duration, cpl *completion) (retract func()) {
		return d.core.Mgmt().RemoveDriver(th.Addr(), hw.DeviceID(id), timeout, func(err error) {
			cpl.err = err
			cpl.complete()
		})
	})
	if err != nil {
		return err
	}
	rerr := cpl.err
	cpl.recycle()
	return rerr
}

// await is the synchronous-call harness every SDK request goes through: it
// translates the context into a virtual-time budget, lets start register
// the request (whose completion callback must invoke cpl.complete, exactly
// once, from whichever goroutine the network delivers on), then blocks
// until completion or context cancellation. start returns a retract
// function (possibly nil) that withdraws the registered request without
// firing its callback; await invokes it whenever it returns without
// completion, so a cancelled call's pending-request entry is reclaimed
// immediately instead of lingering until its deadline expires.
//
// In real-time mode the block is a plain channel wait — the event loop and
// worker pool advance the network, and the registration's expiry timer
// guarantees completion. In virtual mode nothing advances the clock unless
// a caller does, so the blocked goroutines elect a driver: whoever acquires
// pumpMu steps the simulator (completing everyone's requests, not just its
// own) and broadcasts progress; the rest park until the next step or their
// own completion. Every request arms a virtual-time expiry event at
// registration, so a drained queue without completion cannot happen in
// practice; it is reported as a timeout defensively.
// On success await returns the fired completion WITHOUT recycling it: the
// caller harvests the result slots (vals, err, at) the callback filled and
// then calls recycle itself. On error the completion is abandoned to the GC
// (see recycle's comment) and the returned completion is nil.
func (d *Deployment) await(ctx context.Context, start func(timeout time.Duration, cpl *completion) (retract func())) (*completion, error) {
	timeout, err := d.timeoutFrom(ctx)
	if err != nil {
		return nil, err
	}
	cpl := completionPool.Get().(*completion)
	retract := start(timeout, cpl)
	if retract == nil {
		retract = noRetract // avoids nil checks at every abandonment site
	}
	if d.realtime {
		select {
		case <-cpl.ch:
			return cpl, nil
		case <-ctx.Done():
			retract()
			return nil, ctx.Err()
		case <-d.closeCh:
			// The clock died with our expiry event still queued; nothing
			// can complete this request anymore.
			retract()
			return nil, ErrClosed
		}
	}
	self := gid()
	// A conducted strand never joins the driver election: the Conduct
	// orchestrator owns the simulator and resumes the strand when its
	// completion has fired.
	if s := d.conductedStrand(self); s != nil {
		if err := s.parkAwait(cpl); err != nil {
			return nil, err
		}
		return cpl, nil
	}
	// Count ourselves as a potential parker BEFORE sampling the progress
	// channel: drivers check the count after releasing pumpMu, so a failed
	// TryLock guarantees the holder will observe us and broadcast.
	d.waiters.Add(1)
	defer d.waiters.Add(-1)
	for {
		select {
		case <-cpl.ch:
			return cpl, nil
		default:
		}
		if err := ctx.Err(); err != nil {
			retract()
			return nil, err
		}
		// Sample the progress channel BEFORE trying to become the driver:
		// every broadcast after this point closes the sampled channel, so a
		// driver finishing between our failed TryLock and our wait cannot
		// strand us on a channel nobody closes.
		progress := d.stepChan()
		if d.pumpMu.TryLock() {
			d.driverGid.Store(self)
			stepped := d.core.Network.Step()
			d.driverGid.Store(0)
			d.pumpMu.Unlock()
			// Broadcast AFTER releasing pumpMu: a goroutine whose TryLock
			// failed while we held the lock sampled its channel before this
			// point, and this broadcast closes it.
			d.broadcastStep()
			if !stepped {
				select {
				case <-cpl.ch:
					return cpl, nil
				default:
					retract()
					return nil, ErrTimeout
				}
			}
		} else if d.driverGid.Load() == self {
			// We ARE the driver, reentered from inside a handler it is
			// running (an SDK call in an OnReading/OnAdvert callback or a
			// ScheduleAfter closure). Pump directly, as the pre-runtime
			// SDK's inline Step loop did — parking would deadlock on
			// ourselves.
			if !d.core.Network.Step() {
				select {
				case <-cpl.ch:
					return cpl, nil
				default:
					retract()
					return nil, ErrTimeout
				}
			}
		} else {
			select {
			case <-cpl.ch:
				return cpl, nil
			case <-ctx.Done():
				retract()
				return nil, ctx.Err()
			case <-progress:
			}
		}
	}
}

// noRetract is the shared no-op for registrations with nothing to withdraw.
func noRetract() {}

// completion is the once-only done signal of one await, drawn from a pool:
// the registered callback invokes complete(), which wins the CAS and sends
// the single token into the cap-1 channel; the await consumes the token and
// recycles the completion. Passing the *completion itself into start (rather
// than the bound method value cpl.complete) keeps the hot path free of the
// method-value closure allocation.
type completion struct {
	ch    chan struct{} // cap 1; carries the single completion token
	fired atomic.Bool

	// Result slots the registered callback fills before complete(): the
	// request's reply values, its application-level error, and the virtual
	// time the reply landed. Carrying results here instead of in variables
	// captured by a per-call closure keeps the hot read path at the pooled
	// completion's allocation instead of a fresh heap cell per call; the
	// awaiting goroutine harvests them after await hands the completion back
	// and then recycles it.
	vals []int32
	err  error
	at   time.Duration
}

var completionPool = sync.Pool{New: func() any {
	return &completion{ch: make(chan struct{}, 1)}
}}

func (c *completion) complete() {
	if c.fired.CompareAndSwap(false, true) {
		c.ch <- struct{}{}
	}
}

// recycle returns a completion whose token has been consumed to the pool.
// Abandoned completions (context cancellation, deployment close, the
// defensive drained-queue timeout) are deliberately NOT recycled: the
// registered callback may already be mid-dispatch and fire complete() after
// the caller gave up — retract only prevents callbacks that have not started
// — and a recycled completion would deliver that stale token to an unrelated
// call. Those rare abandonments are left to the GC.
func (c *completion) recycle() {
	c.fired.Store(false)
	c.vals = nil
	c.err = nil
	c.at = 0
	completionPool.Put(c)
}

// gid returns the current goroutine's id (parsed from runtime.Stack; there
// is no cheaper portable way). Called once per blocking SDK call, not per
// simulation step.
func gid() int64 {
	var buf [64]byte
	n := runtime.Stack(buf[:], false)
	// The header is "goroutine <id> [...".
	s := buf[len("goroutine "):n]
	var id int64
	for _, c := range s {
		if c < '0' || c > '9' {
			break
		}
		id = id*10 + int64(c-'0')
	}
	return id
}

// stepChan returns the channel closed at the next simulation progress
// broadcast.
func (d *Deployment) stepChan() <-chan struct{} {
	d.stepMu.Lock()
	defer d.stepMu.Unlock()
	return d.stepCh
}

// broadcastStep wakes every parked waiter by closing the current progress
// channel and installing a fresh one. Every caller is itself registered in
// d.waiters, so a count of 1 means no one else can be parked (a goroutine
// registers BEFORE sampling the channel, and the sequentially consistent
// atomics make its registration visible to the driver's post-step load) —
// the common single-goroutine virtual program pays one atomic load per
// step and the hot loop stays allocation-free.
func (d *Deployment) broadcastStep() {
	if d.waiters.Load() <= 1 {
		return
	}
	d.stepMu.Lock()
	close(d.stepCh)
	d.stepCh = make(chan struct{})
	d.stepMu.Unlock()
}

// timeoutFrom translates a context deadline into a virtual-time budget: a
// context with a deadline t from now bounds the request to t of virtual
// time (scaled by the time-scale factor in real-time mode, so the virtual
// expiry and the wall deadline coincide). Without a deadline the default
// virtual-time timeout applies. An already-expired context fails
// immediately.
//
// Note the wall-clock sampling: the budget is time.Until(deadline) at call
// time, so runs using context deadlines close to the actual virtual reply
// latency are not bit-for-bit reproducible. Callers that need the fully
// deterministic behaviour the virtual clock otherwise guarantees should use
// WithRequestTimeout (a pure virtual-time bound) and plain contexts.
func (d *Deployment) timeoutFrom(ctx context.Context) (time.Duration, error) {
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	if dl, ok := ctx.Deadline(); ok {
		rem := time.Until(dl)
		if rem <= 0 {
			return 0, context.DeadlineExceeded
		}
		if d.realtime {
			rem = time.Duration(float64(rem) * d.scale)
		}
		return rem, nil
	}
	return d.timeout, nil
}

// USBHostEnergy returns the energy (in joules) an always-on USB host
// controller would consume over a span — the baseline the paper's Section 6
// energy argument compares µPnP's on-demand identification against.
func USBHostEnergy(span time.Duration) float64 {
	return float64(energy.DefaultUSBHost.Energy(span))
}

// ---------------------------------------------------------------------------
// Things

// PluginTrace records the timing and energy of one peripheral plug-in
// event: identification, address generation, group join, driver request and
// install, and advertisement.
type PluginTrace = thing.PluginTrace

// BoardStats counts control-board activity: interrupts, identification
// scans, active time and energy.
type BoardStats = hw.BoardStats

// Thing is one µPnP Thing: an embedded device hosting peripherals behind a
// µPnP control board.
type Thing struct {
	d  *Deployment
	th *thing.Thing
}

// Addr returns the Thing's unicast IPv6 address.
func (t *Thing) Addr() netip.Addr { return t.th.Addr() }

// Traces returns the plug-in traces recorded so far.
func (t *Thing) Traces() []*PluginTrace { return t.th.Traces() }

// InstalledDrivers lists the locally installed driver identifiers.
func (t *Thing) InstalledDrivers() []DeviceID {
	ids := t.th.InstalledDrivers()
	out := make([]DeviceID, len(ids))
	for i, id := range ids {
		out[i] = DeviceID(id)
	}
	return out
}

// BoardStats returns the control board's activity counters.
func (t *Thing) BoardStats() BoardStats { return t.th.Board().Stats() }

// Unplug disconnects the peripheral on a channel; the Thing tears down its
// driver and advertises the change.
func (t *Thing) Unplug(channel int) error { return t.th.Unplug(channel) }

// StopStream terminates an active stream served by this Thing, notifying
// subscribers.
func (t *Thing) StopStream(id DeviceID) { t.th.StopStream(hw.DeviceID(id)) }

// Deployment returns the deployment the Thing belongs to — handy when
// Things from several deployments mingle behind one Fleet.
func (t *Thing) Deployment() *Deployment { return t.d }

// InstalledDriverBytes returns a copy of the driver artefact installed for
// a device type, or nil when none is installed. Failover tests use it to
// assert an install completed through a manager crash is byte-identical to
// the no-failure run's.
func (t *Thing) InstalledDriverBytes(id DeviceID) []byte {
	return t.th.InstalledDriverBytes(hw.DeviceID(id))
}

// plug installs the peripheral for dev on a channel, discarding any
// device-side handle (WithPeripherals path).
func (t *Thing) plug(channel int, dev DeviceID) error {
	switch dev {
	case TMP36:
		return t.PlugTMP36(channel)
	case HIH4030:
		return t.PlugHIH4030(channel)
	case BMP180:
		return t.PlugBMP180(channel)
	case ADXL345:
		return t.PlugADXL345(channel)
	case ID20LA:
		_, err := t.PlugRFID(channel)
		return err
	case Relay:
		_, err := t.PlugRelay(channel)
		return err
	default:
		return fmt.Errorf("micropnp: no peripheral model for device %v", dev)
	}
}

// PlugTMP36 plugs a TMP36 temperature sensor (ADC) into a channel.
func (t *Thing) PlugTMP36(channel int) error { return t.d.core.PlugTMP36(t.th, channel) }

// PlugHIH4030 plugs an HIH-4030 humidity sensor (ADC) into a channel.
func (t *Thing) PlugHIH4030(channel int) error { return t.d.core.PlugHIH4030(t.th, channel) }

// PlugBMP180 plugs a BMP180 pressure sensor (I²C) into a channel.
func (t *Thing) PlugBMP180(channel int) error { return t.d.core.PlugBMP180(t.th, channel) }

// PlugADXL345 plugs an ADXL345 accelerometer (SPI) into a channel.
func (t *Thing) PlugADXL345(channel int) error { return t.d.core.PlugADXL345(t.th, channel) }

// RFIDReader is the device-side handle of a plugged ID-20LA RFID reader:
// present cards to it and read them remotely.
type RFIDReader struct {
	dev *core.RFIDDevice
}

// PresentCard simulates a card with the given 10-hex-digit identifier
// entering the reader's field.
func (r *RFIDReader) PresentCard(cardID string) error { return r.dev.PresentCard(cardID) }

// PlugRFID plugs an ID-20LA RFID reader (UART) into a channel and returns
// the handle for presenting cards.
func (t *Thing) PlugRFID(channel int) (*RFIDReader, error) {
	dev, err := t.d.core.PlugRFID(t.th, channel)
	if err != nil {
		return nil, err
	}
	return &RFIDReader{dev: dev}, nil
}

// RelayBank is the device-side handle of a plugged PCF8574 relay bank:
// observe the outputs the network writes set.
type RelayBank struct {
	dev *core.RelayDevice
}

// State returns the relay outputs (bit i = relay i energised).
func (r *RelayBank) State() byte { return r.dev.State() }

// PlugRelay plugs a PCF8574 relay bank (I²C) into a channel and returns the
// handle for observing the outputs.
func (t *Thing) PlugRelay(channel int) (*RelayBank, error) {
	dev, err := t.d.core.PlugRelay(t.th, channel)
	if err != nil {
		return nil, err
	}
	return &RelayBank{dev: dev}, nil
}
