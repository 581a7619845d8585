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
// tour); this package is the only importable surface, and it assembles and
// drives deployments directly from the internal network, Thing, client and
// manager packages.
package micropnp

import (
	"context"
	"fmt"
	"net/netip"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"micropnp/internal/bus"
	"micropnp/internal/client"
	"micropnp/internal/driver"
	"micropnp/internal/energy"
	"micropnp/internal/hw"
	"micropnp/internal/manager"
	"micropnp/internal/netsim"
	"micropnp/internal/thing"
	"micropnp/internal/vm"
)

// Option configures a Deployment (functional options).
type Option func(*config)

// config is the one configuration the options write: the network's own
// configuration plus the deployment-level fields the network knows nothing
// about.
type config struct {
	net netsim.Config
	// streamPeriod overrides the Things' stream production period.
	streamPeriod time.Duration
	// requestTimeout bounds client requests made without a context
	// deadline, and how long Things hold an unanswered read; NewDeployment
	// resolves zero to the client default.
	requestTimeout time.Duration
	retry          client.RetryPolicy
	// managers is the number of manager instances behind the anycast.
	managers int
	// site selects the deployment's 48-bit network prefix (sitePrefix).
	site int
}

// WithLossRate sets the per-hop frame loss probability (0..1).
func WithLossRate(p float64) Option {
	return func(c *config) { c.net.LossRate = p }
}

// WithProcJitter adds relative per-delivery latency noise (e.g. 0.05 for
// ±5%), modelling CSMA backoff and stack scheduling variance.
func WithProcJitter(p float64) Option {
	return func(c *config) { c.net.ProcJitter = p }
}

// WithSeed selects the random stream for loss and jitter sampling, making
// lossy runs reproducible. Zero keeps the fixed default stream.
func WithSeed(seed int64) Option {
	return func(c *config) { c.net.Seed = seed }
}

// WithStreamPeriod overrides the Things' stream production period
// (default 10 s of virtual time).
func WithStreamPeriod(d time.Duration) Option {
	return func(c *config) { c.streamPeriod = d }
}

// WithRequestTimeout sets the default virtual-time deadline for requests
// issued without a context deadline (default 5 s).
func WithRequestTimeout(d time.Duration) Option {
	return func(c *config) { c.requestTimeout = d }
}

// WithRealTime runs the deployment on the wall clock instead of the
// caller-driven virtual clock: the network event loop gets its own
// goroutine, timers fire as real time passes, and handlers dispatch from a
// bounded worker pool, so SDK calls genuinely block and may be issued from
// many goroutines at once. Determinism is traded away. Deployments in this
// mode hold goroutines; call Close when done.
func WithRealTime() Option {
	return func(c *config) { c.net.Realtime = true }
}

// WithTimeScale compresses virtual time relative to wall time in real-time
// mode: at scale s, one wall second covers s seconds of virtual time, so
// the paper's multi-second plug-in sequences and request deadlines play out
// s-fold accelerated. 1 (or 0) runs in real time. Ignored by the virtual
// clock, whose virtual time is unrelated to wall time.
func WithTimeScale(s float64) Option {
	return func(c *config) { c.net.TimeScale = s }
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
	return func(c *config) { c.net.Zones = n }
}

// WithShardWorkers bounds the sharded clock's per-round parallelism: 1
// forces the sequential single-loop schedule (bit-identical to any parallel
// run — the determinism cross-check mode), 0 means GOMAXPROCS. In real-time
// mode the same knob bounds the handler worker pool: at most n network
// handlers run concurrently (0 = min(GOMAXPROCS, 8)).
func WithShardWorkers(n int) Option {
	return func(c *config) { c.net.Workers = n }
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
		c.retry = client.RetryPolicy{Attempts: attempts, BaseBackoff: baseBackoff}
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
	return func(c *config) { c.managers = n }
}

// WithSite places the deployment on its own 48-bit network prefix: site 0
// (the default) is the classic 2001:db8::/48, site k occupies
// 2001:db8:k::/48 — manager, anycast, Things and multicast groups included.
// Deployments federated behind one Fleet must use distinct sites so a
// Thing's address identifies its deployment.
func WithSite(site int) Option {
	return func(c *config) { c.site = site }
}

// Deployment is a complete simulated µPnP network: one manager at the
// border-router position serving the standard driver repository, plus the
// Things and Clients added to it. A Deployment is safe for concurrent use:
// in virtual mode concurrent blocked calls elect one goroutine to drive the
// simulator while the others park on their completion channels; in
// real-time mode every call simply blocks until its reply arrives.
type Deployment struct {
	cfg     config
	net     *netsim.Network
	env     *bus.Environment // the physical conditions every sensor observes
	prefix  netsim.NetworkPrefix
	anycast netip.Addr // the managers' shared anycast address (<prefix>::aaaa)

	// border is the first (border-router) manager: its node roots the
	// routing tree Things and clients attach under. It stays valid after a
	// FailManager — the crashed process's router node keeps relaying.
	border *manager.Manager
	repo   *driver.Repository
	// images is the deployment's driver-image table: every Thing loads its
	// drivers through it, so Things plugging the same peripheral type share
	// one compiled image. It is per deployment rather than process-wide so
	// it is bounded by this deployment's drivers and freed with it.
	images *vm.Images

	addrMu  sync.Mutex
	hostSeq int

	mgrMu    sync.Mutex
	managers []*manager.Manager

	// pumpMu elects the single virtual-mode simulator driver; stepMu/stepCh
	// broadcast simulation progress to parked waiters (the channel is closed
	// and replaced on each broadcast). waiters counts goroutines that may
	// park on stepCh, so the driver skips the broadcast entirely in the
	// common single-goroutine case. driverGid is the goroutine id of the
	// pumpMu holder, but only once it has entered a user callback: the SDK's
	// callback wrappers (ScheduleAfter closures, AddAdvertHook, Subscribe's
	// onReading) record it on their first call in a lock tenure
	// (noteDriver), and releasing pumpMu clears it. An SDK call from inside
	// such a callback finds its own id there and pumps directly instead of
	// parking on itself; every other driver never computes its id. Lane
	// events of a zoned deployment with parallel shard workers may run on
	// worker goroutines, whose callbacks must not make blocking SDK calls.
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

// sitePrefix returns the 48-bit network prefix of a site: site 0 is the
// classic 2001:db8::/48, site k occupies 2001:db8:k::/48.
func sitePrefix(site int) netsim.NetworkPrefix {
	return netsim.NetworkPrefix{0x20, 0x01, 0x0d, 0xb8, byte(site >> 8), byte(site)}
}

// NewDeployment builds a deployment: a network with one manager serving the
// standard drivers at the border-router position, plus WithManagers-1
// redundant instances behind the same anycast address.
func NewDeployment(opts ...Option) (*Deployment, error) {
	var cfg config
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.requestTimeout <= 0 {
		cfg.requestTimeout = client.DefaultTimeout
	}
	repo, err := driver.FullRepository()
	if err != nil {
		return nil, err
	}
	prefix := sitePrefix(cfg.site)
	d := &Deployment{
		cfg:     cfg,
		net:     netsim.New(cfg.net),
		env:     bus.NewEnvironment(),
		prefix:  prefix,
		anycast: netsim.UnicastAddr(prefix, 0, 0xaaaa),
		repo:    repo,
		images:  vm.NewImages(),
		stepCh:  make(chan struct{}),
		closeCh: make(chan struct{}),
	}
	// The border manager sits at <prefix>::1 (site 0: the classic
	// 2001:db8::1), the root of the routing tree.
	if d.border, err = d.newManager(netsim.UnicastAddr(prefix, 0, 1), nil); err != nil {
		return nil, err
	}
	for i := 1; i < cfg.managers; i++ {
		if _, err := d.AddManager(); err != nil {
			return nil, err
		}
	}
	return d, nil
}

// newManager stands up a manager instance at addr behind the anycast,
// attached under parent (nil = the routing tree root), and registers it.
func (d *Deployment) newManager(addr netip.Addr, parent *netsim.Node) (*manager.Manager, error) {
	mgr, err := manager.New(manager.Config{
		Network:    d.net,
		Addr:       addr,
		Anycast:    d.anycast,
		Parent:     parent,
		Repository: d.repo,
	})
	if err != nil {
		return nil, err
	}
	d.mgrMu.Lock()
	d.managers = append(d.managers, mgr)
	d.mgrMu.Unlock()
	return mgr, nil
}

// nextAddr allocates the next host address carrying the given address zone
// (netsim.UnicastAddr): zone 0 reproduces the classic 2001:db8::1xx layout,
// and the byte form addresses 100k-Thing deployments cleanly.
func (d *Deployment) nextAddr(zone uint16) netip.Addr {
	d.addrMu.Lock()
	d.hostSeq++
	seq := d.hostSeq
	d.addrMu.Unlock()
	return netsim.UnicastAddr(d.prefix, zone, uint32(0x100+seq))
}

// Close releases the deployment's runtime resources: in real-time mode it
// stops the network event loop and the worker pool (a handler already
// running finishes first) and discards scheduled events; in virtual mode
// it retires a zoned deployment's shard workers. Close is idempotent.
// Calls blocked on in-flight requests when Close runs fail with ErrClosed
// (their expiry events die with the clock, so they could never complete).
func (d *Deployment) Close() {
	d.closeOnce.Do(func() { close(d.closeCh) })
	d.net.Close()
}

// Realtime reports whether the deployment runs on the wall clock.
func (d *Deployment) Realtime() bool { return d.cfg.net.Realtime }

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
// enabling multi-hop topologies; without it, or with a nil parent, the Thing
// sits one hop from the manager. Combining Under with InZone keeps a zone's
// Things in a common subtree, so intra-zone traffic stays on one event lane.
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
	t, err := d.newThing(name, cfg.zone, false, parent)
	if err != nil {
		return nil, err
	}
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
	return d.newThing(name, zone, true, nil)
}

// newThing creates a Thing whose unicast address carries the given address
// zone, attached under parent (nil = the border manager). On a zone-sharded
// deployment its deliveries and timers run on that zone's event lane. A
// located Thing also sits in that location zone with the structured
// namespace on: it joins zone-scoped and class-wildcard multicast groups for
// its peripherals.
func (d *Deployment) newThing(name string, zone uint16, located bool, parent *netsim.Node) (*Thing, error) {
	if parent == nil {
		parent = d.border.Node()
	}
	cfg := thing.Config{
		Network:            d.net,
		Addr:               d.nextAddr(zone),
		Parent:             parent,
		Manager:            d.anycast,
		Images:             d.images,
		Name:               name,
		StreamPeriod:       d.cfg.streamPeriod,
		Units:              driver.UnitsTable(),
		PendingReadTimeout: d.cfg.requestTimeout,
	}
	if located {
		cfg.Zone = zone
		cfg.StructuredNamespace = true
	}
	th, err := thing.New(cfg)
	if err != nil {
		return nil, err
	}
	return &Thing{d: d, th: th}, nil
}

// AddClient creates a client one hop from the manager.
func (d *Deployment) AddClient() (*Client, error) { return d.newClient(0, nil) }

// AddClientUnder creates a client attached below a Thing in the routing
// tree.
func (d *Deployment) AddClientUnder(parent *Thing) (*Client, error) {
	return d.newClient(0, parent.th.Node())
}

// newClient creates a client whose unicast address carries the given
// address zone, attached under parent (nil = the border manager). On a
// zone-sharded deployment the client's reply handling, request timers and
// retransmissions run on that zone's event lane.
func (d *Deployment) newClient(zone uint16, parent *netsim.Node) (*Client, error) {
	if parent == nil {
		parent = d.border.Node()
	}
	cl, err := client.New(client.Config{
		Network:        d.net,
		Addr:           d.nextAddr(zone),
		Parent:         parent,
		DefaultTimeout: d.cfg.requestTimeout,
		Retry:          d.cfg.retry,
	})
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
	d.drive(func() { d.net.RunUntilIdle(0) })
}

// RunFor lets a span of virtual time elapse: in virtual mode it drives the
// network inline, in real-time mode it sleeps until the span has passed on
// the (scaled) wall clock. Use it for streams, which reschedule themselves
// and never go idle.
func (d *Deployment) RunFor(span time.Duration) {
	d.drive(func() { d.net.RunUntil(d.net.Now() + span) })
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
	var idle bool
	d.drive(func() { idle = d.net.RunUntilQuiesced(d.net.Now() + horizon) })
	return idle
}

// drive runs a network drive function: directly in real-time mode, where
// the network's own goroutines do the work and the call just waits, and as
// the elected driver (pump) in virtual mode.
func (d *Deployment) drive(fn func()) {
	if d.cfg.net.Realtime {
		fn()
		return
	}
	d.pump(fn)
}

// pump runs a virtual-mode drive function as the elected driver: it takes
// the driver lock and broadcasts progress to parked await waiters
// afterwards. Called from a user callback the current driver is running, it
// drives the network directly — the election is already held further up this
// goroutine's stack. Only a caller that finds the lock held pays for the
// goroutine-id lookup that tells the two apart.
func (d *Deployment) pump(drive func()) {
	d.waiters.Add(1)
	defer d.waiters.Add(-1)
	if !d.pumpMu.TryLock() {
		if d.isDriver() {
			drive()
			return
		}
		d.pumpMu.Lock()
	}
	drive()
	d.unlockPump()
}

// unlockPump ends a pumpMu tenure: it forgets the driver's id, releases the
// lock and then broadcasts progress. Broadcasting after the release matters:
// a goroutine whose TryLock failed while the lock was held sampled its
// progress channel before this point, and the broadcast closes it.
func (d *Deployment) unlockPump() {
	d.driverGid.Store(0)
	d.pumpMu.Unlock()
	d.broadcastStep()
}

// noteDriver runs at the top of every SDK wrapper around a user callback.
// In virtual mode the callback runs on the goroutine holding pumpMu, so the
// first callback of a lock tenure records that goroutine's id for isDriver;
// later ones find it set and skip the lookup.
func (d *Deployment) noteDriver() {
	if !d.cfg.net.Realtime && d.driverGid.Load() == 0 {
		d.driverGid.Store(gid())
	}
}

// isDriver reports whether the calling goroutine holds pumpMu and is
// running one of its user callbacks. Outside callbacks driverGid is zero,
// so the answer costs one atomic load and no goroutine-id lookup.
func (d *Deployment) isDriver() bool {
	id := d.driverGid.Load()
	return id != 0 && id == gid()
}

// Now returns the current virtual time.
func (d *Deployment) Now() time.Duration { return d.net.Now() }

// ScheduleAfter runs fn after a span of virtual time. Use it to stage
// device-side stimuli — card swipes, environment changes — that should
// occur while a synchronous call is driving the simulator.
func (d *Deployment) ScheduleAfter(delay time.Duration, fn func()) {
	d.net.Schedule(delay, func() {
		d.noteDriver()
		fn()
	})
}

// SetEnvironment updates the shared physical conditions every sensor
// observes: temperature (°C), relative humidity (%) and pressure (Pa).
func (d *Deployment) SetEnvironment(tempC, humidityRH, pressurePa float64) {
	d.env.Set(tempC, humidityRH, pressurePa)
}

// Environment returns the current physical conditions.
func (d *Deployment) Environment() (tempC, humidityRH, pressurePa float64) {
	return d.env.Snapshot()
}

// SetAcceleration updates the acceleration vector (in g) accelerometers
// observe.
func (d *Deployment) SetAcceleration(x, y, z float64) {
	d.env.SetAcceleration(x, y, z)
}

// ManagerUploads returns the number of driver uploads the managers served —
// a cached driver is uploaded at most once per Thing.
func (d *Deployment) ManagerUploads() int {
	total := 0
	for _, m := range d.managerList() {
		total += m.Uploads()
	}
	return total
}

// ManagerCount returns the number of manager instances in the deployment
// (failed ones included — a crashed manager's node stays in the routing
// tree).
func (d *Deployment) ManagerCount() int { return len(d.managerList()) }

// managerList returns the manager instances in creation order, failed ones
// included: index i names the same instance for the deployment's lifetime.
func (d *Deployment) managerList() []*manager.Manager {
	d.mgrMu.Lock()
	defer d.mgrMu.Unlock()
	return d.managers[:len(d.managers):len(d.managers)]
}

// AddManager stands up an additional manager instance behind the
// deployment's anycast address (the paper's Section 5 redundancy) and
// returns its index for use with FailManager. Things keep addressing the
// anycast; the network routes each request to the nearest live manager.
func (d *Deployment) AddManager() (int, error) {
	if _, err := d.newManager(d.nextAddr(0), d.border.Node()); err != nil {
		return 0, err
	}
	return d.ManagerCount() - 1, nil
}

// mgmt returns the instance management requests are issued through: the
// first live manager, falling back to the first instance when every one has
// failed (its requests then expire like any unreachable peer's).
func (d *Deployment) mgmt() *manager.Manager {
	managers := d.managerList()
	for _, m := range managers {
		if !m.Failed() {
			return m
		}
	}
	return managers[0]
}

// FailManager crashes manager i for fault injection: it leaves the anycast
// group, unbinds its datagram handler (requests reaching it drop as
// NoHandler) and stops sending, though its node keeps relaying frames for
// the subtree beneath it. Pending manager-side requests migrate to a
// surviving manager, re-issued with fresh sequence numbers and a full
// deadline; if none survives they fail with ErrTimeout. Things with driver
// installs in flight recover on their own: the install request is
// retransmitted to the anycast on the ARQ schedule and lands on the nearest
// survivor.
func (d *Deployment) FailManager(i int) error {
	managers := d.managerList()
	if i < 0 || i >= len(managers) {
		return fmt.Errorf("micropnp: no manager %d (deployment has %d)", i, len(managers))
	}
	drained := managers[i].Fail()
	if len(drained) == 0 {
		return nil
	}
	survivor := d.mgmt()
	if survivor.Failed() {
		survivor = nil
	}
	for _, req := range drained {
		switch {
		case survivor == nil:
			if req.OnDiscover != nil {
				req.OnDiscover(nil, ErrTimeout)
			}
			if req.OnRemoval != nil {
				req.OnRemoval(ErrTimeout)
			}
		case req.OnDiscover != nil:
			survivor.DiscoverDrivers(req.Thing, 0, req.OnDiscover)
		case req.OnRemoval != nil:
			survivor.RemoveDriver(req.Thing, req.Device, 0, req.OnRemoval)
		}
	}
	return nil
}

// NetworkStats is a snapshot of network activity counters: sends, per-hop
// transmissions (the energy-relevant quantity), deliveries and losses, and
// on zoned deployments the sharded clock's barrier telemetry.
type NetworkStats = netsim.Stats

// NetworkStats returns a snapshot of the network counters.
func (d *Deployment) NetworkStats() NetworkStats { return d.net.Stats() }

// DiscoverDrivers asks a Thing for its installed drivers through the
// manager (protocol messages 6/7).
func (d *Deployment) DiscoverDrivers(ctx context.Context, th *Thing) ([]DeviceID, error) {
	var ids []DeviceID
	cpl, err := d.await(ctx, func(timeout time.Duration, cpl *completion) (retract func()) {
		return d.mgmt().DiscoverDrivers(th.Addr(), timeout, func(got []hw.DeviceID, err error) {
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
		return d.mgmt().RemoveDriver(th.Addr(), hw.DeviceID(id), timeout, func(err error) {
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
// worker pool advance the network, and the request's expiry timer
// guarantees completion. In virtual mode nothing advances the clock unless
// a caller does, and a call takes one of three paths:
//
//   - strand park: while a Conduct runs, a call made on one of its strands
//     hands the baton back to the orchestrator (Strand.parkAwait);
//   - driver election: the blocked goroutines elect a driver — whoever
//     acquires pumpMu steps the simulator (completing everyone's requests,
//     not just its own) and broadcasts progress; the rest park until the
//     next step or their own completion;
//   - reentrant pump: a call made from a user callback the driver is
//     running finds pumpMu held by its own goroutine and steps directly.
//
// Goroutine identity (gid) is computed only to tell these apart when it
// matters: for the strand lookup while a Conduct is active, and after a
// failed TryLock while the holder is inside a user callback. An uncontended
// call never computes it. Every request arms a virtual-time expiry event
// right after its send, before start returns, so a drained queue without
// completion cannot happen in practice; it is reported as a timeout
// defensively.
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
	if d.cfg.net.Realtime {
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
	// A conducted strand never joins the driver election: the Conduct
	// orchestrator owns the simulator and resumes the strand when its
	// completion has fired.
	if s := d.conductedStrand(); s != nil {
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
			stepped := d.net.Step()
			d.unlockPump()
			if !stepped {
				select {
				case <-cpl.ch:
					return cpl, nil
				default:
					retract()
					return nil, ErrTimeout
				}
			}
		} else if d.isDriver() {
			// We ARE the driver, reentered from inside a handler it is
			// running (an SDK call in an OnReading/advert-hook callback or a
			// ScheduleAfter closure). Pump directly, as the pre-runtime
			// SDK's inline Step loop did — parking would deadlock on
			// ourselves.
			if !d.net.Step() {
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

// gidCalls counts gid calls; tests read it to pin the paths that never
// need goroutine identity.
var gidCalls atomic.Int64

// gid returns the current goroutine's id, parsed from runtime.Stack: there
// is no cheaper portable way, and the cost grows with the caller's stack
// depth. The SDK calls it only where identity is needed: an SDK call made
// while a Conduct runs (strand lookup), a caller that found pumpMu held
// while the holder is inside a user callback, the first user callback of
// each lock tenure, and each strand once at start.
func gid() int64 {
	gidCalls.Add(1)
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
		if d.cfg.net.Realtime {
			rem = time.Duration(float64(rem) * d.net.TimeScale())
		}
		return rem, nil
	}
	return d.cfg.requestTimeout, nil
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
func (t *Thing) PlugTMP36(channel int) error {
	return t.plugModel(channel, driver.IDTMP36, hw.BusADC, &busDevice{analog: &bus.TMP36{Env: t.d.env}})
}

// PlugHIH4030 plugs an HIH-4030 humidity sensor (ADC) into a channel.
func (t *Thing) PlugHIH4030(channel int) error {
	return t.plugModel(channel, driver.IDHIH4030, hw.BusADC, &busDevice{analog: &bus.HIH4030{Env: t.d.env}})
}

// PlugBMP180 plugs a BMP180 pressure sensor (I²C) into a channel.
func (t *Thing) PlugBMP180(channel int) error {
	return t.plugModel(channel, driver.IDBMP180, hw.BusI2C, &busDevice{i2c: bus.NewBMP180(t.d.env)})
}

// PlugADXL345 plugs an ADXL345 accelerometer (SPI) into a channel.
func (t *Thing) PlugADXL345(channel int) error {
	return t.plugModel(channel, driver.IDADXL345, hw.BusSPI, &busDevice{spi: bus.NewADXL345(t.d.env)})
}

// RFIDReader is the device-side handle of a plugged ID-20LA RFID reader:
// present cards to it and read them remotely.
type RFIDReader struct {
	dev *busDevice
}

// PresentCard simulates a card with the given 10-hex-digit identifier
// entering the reader's field.
func (r *RFIDReader) PresentCard(cardID string) error {
	if r.dev.rfid == nil {
		return fmt.Errorf("micropnp: RFID reader not attached")
	}
	return r.dev.rfid.PresentCard(cardID)
}

// PlugRFID plugs an ID-20LA RFID reader (UART) into a channel and returns
// the handle for presenting cards.
func (t *Thing) PlugRFID(channel int) (*RFIDReader, error) {
	dev := &busDevice{uart: true}
	if err := t.plugModel(channel, driver.IDID20LA, hw.BusUART, dev); err != nil {
		return nil, err
	}
	return &RFIDReader{dev: dev}, nil
}

// RelayBank is the device-side handle of a plugged PCF8574 relay bank:
// observe the outputs the network writes set.
type RelayBank struct {
	dev *busDevice
}

// State returns the relay outputs (bit i = relay i energised).
func (r *RelayBank) State() byte {
	if !r.dev.attached {
		return 0
	}
	return r.dev.i2c.(*bus.PCF8574Relay).State()
}

// PlugRelay plugs a PCF8574 relay bank (I²C) into a channel and returns the
// handle for observing the outputs.
func (t *Thing) PlugRelay(channel int) (*RelayBank, error) {
	dev := &busDevice{i2c: &bus.PCF8574Relay{}}
	if err := t.plugModel(channel, driver.IDRelay, hw.BusI2C, dev); err != nil {
		return nil, err
	}
	return &RelayBank{dev: dev}, nil
}

// plugModel plugs a peripheral with identifier id on bus kind b, simulated
// by dev, into a channel: the control board identifies it and the plug-in
// sequence starts.
func (t *Thing) plugModel(channel int, id hw.DeviceID, b hw.BusKind, dev *busDevice) error {
	p, err := hw.NewPeripheral(hw.PeripheralSpec{ID: id, Bus: b})
	if err != nil {
		return err
	}
	return t.th.Plug(channel, p, dev)
}

// busDevice wires one simulated peripheral model to a channel's
// interconnects (a thing.Device). Exactly one of the model fields is set:
// an analog sensor for the ADC, a slave for the I²C or SPI bus, or uart for
// an ID-20LA reader on the UART.
type busDevice struct {
	analog bus.AnalogSource
	i2c    bus.I2CDevice
	spi    bus.SPIDevice
	uart   bool
	// attached reports whether the model is on its channel; rfid is the
	// UART reader while attached.
	attached bool
	rfid     *bus.ID20LA
}

// Attach implements thing.Device.
func (d *busDevice) Attach(ic *thing.Interconnects) error {
	switch {
	case d.analog != nil:
		ic.ADC.Connect(d.analog)
	case d.i2c != nil:
		if err := ic.I2C.Attach(d.i2c); err != nil {
			return err
		}
	case d.spi != nil:
		ic.SPI.Connect(d.spi)
	case d.uart:
		d.rfid = bus.NewID20LA(ic.UART)
	}
	d.attached = true
	return nil
}

// Detach implements thing.Device.
func (d *busDevice) Detach(ic *thing.Interconnects) {
	switch {
	case d.analog != nil:
		ic.ADC.Connect(nil)
	case d.i2c != nil:
		ic.I2C.Detach(d.i2c.I2CAddr())
	case d.spi != nil:
		ic.SPI.Connect(nil)
	}
	d.rfid = nil
	d.attached = false
}
