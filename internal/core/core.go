// Package core is the public façade of the µPnP reproduction: it assembles
// the full system — simulated IPv6 network, µPnP manager with the standard
// driver repository, Things with control boards, clients, and the four
// evaluation peripherals — into a Deployment that can be scripted from
// examples, experiments and tests.
//
// A typical session:
//
//	d, _ := core.NewDeployment(core.DeploymentConfig{})
//	th, _ := d.AddThing("kitchen")
//	cl, _ := d.AddClient()
//	d.PlugTMP36(th, 0)
//	d.Run()                      // plug-in sequence: identify, fetch driver, advertise
//	cl.Read(th.Addr(), driver.IDTMP36, 0, func(v []int32, err error) { ... })
//	d.Run()
//
// External consumers should use the public SDK (package micropnp at the
// repository root), which wraps this façade in synchronous, context-aware
// calls.
package core

import (
	"fmt"
	"net/netip"
	"sync"
	"time"

	"micropnp/internal/bus"
	"micropnp/internal/client"
	"micropnp/internal/driver"
	"micropnp/internal/hw"
	"micropnp/internal/manager"
	"micropnp/internal/netsim"
	"micropnp/internal/reqerr"
	"micropnp/internal/thing"
	"micropnp/internal/vm"
)

// DeploymentConfig tunes a simulated deployment.
type DeploymentConfig struct {
	// LossRate is the per-hop frame loss probability.
	LossRate float64
	// ProcJitter adds relative per-delivery latency noise (0 = none).
	ProcJitter float64
	// Seed selects the random stream for loss/jitter (0 = fixed default).
	Seed int64
	// StreamPeriod overrides the Things' stream production period.
	StreamPeriod time.Duration
	// Repository overrides the manager's driver repository (default: the
	// standard four-driver repository).
	Repository *driver.Repository
	// RequestTimeout bounds client requests made without an explicit
	// timeout (zero = the client default).
	RequestTimeout time.Duration
	// Realtime runs the network on the wall clock: the event loop gets its
	// own goroutine and handlers dispatch from a bounded worker pool (see
	// netsim.RealtimeClock). Default is the deterministic virtual clock.
	Realtime bool
	// TimeScale compresses virtual time relative to wall time in realtime
	// mode (1 or 0 = real time; 100 = 100x accelerated).
	TimeScale float64
	// Workers bounds the realtime handler pool (0 = min(GOMAXPROCS, 8)) and,
	// with Zones > 1, the sharded clock's per-round parallelism (1 forces
	// the sequential single-loop schedule; 0 = GOMAXPROCS).
	Workers int
	// Zones partitions the network into that many address zones run by the
	// zone-sharded conservative-PDES clock (see netsim.ShardedClock); 0 or 1
	// runs it on one lane, event by event. Place Things in zones with
	// AddThingInZone. Ignored in realtime mode.
	Zones int
	// Retry enables automatic retransmission of unanswered unicast client
	// reads and writes (zero value disables).
	Retry client.RetryPolicy
	// Managers is the number of manager instances stood up behind the
	// deployment's anycast address (Section 5 redundancy); 0 or 1 keeps the
	// single border-router manager.
	Managers int
	// Site selects the deployment's 48-bit network prefix: site 0 is the
	// classic 2001:db8::/48, site k occupies 2001:db8:k::/48. Deployments
	// federated behind one Fleet need distinct sites so Thing addresses
	// route unambiguously by prefix.
	Site int
}

// Deployment is a complete simulated µPnP network.
type Deployment struct {
	Network *netsim.Network
	// Manager is the first (border-router) manager instance; additional
	// instances behind the same anycast live in the managers slice. The
	// field stays valid after a FailManager — the crashed process's router
	// node keeps relaying, so topology attachment through it still works.
	Manager *manager.Manager
	// Env is the shared physical environment observed by all sensors.
	Env *bus.Environment

	cfg      DeploymentConfig
	prefix   netsim.NetworkPrefix
	addrMu   sync.Mutex
	hostSeq  int
	managerA netip.Addr

	mgrMu    sync.Mutex
	managers []*manager.Manager
	repo     *driver.Repository
	// images is the deployment's driver-image table: every Thing loads its
	// drivers through it, so Things plugging the same peripheral type share
	// one compiled image. It is per deployment rather than process-wide so
	// it is bounded by this deployment's drivers and freed with it.
	images *vm.Images
}

// ManagerAnycast is the well-known manager anycast address of site-0
// simulated deployments; site k deployments use the same ::aaaa host under
// their own 48-bit prefix (see AnycastForSite).
var ManagerAnycast = netip.MustParseAddr("2001:db8::aaaa")

// SitePrefix returns the 48-bit network prefix of a site: site 0 is the
// classic 2001:db8::/48, site k occupies 2001:db8:k::/48.
func SitePrefix(site int) netsim.NetworkPrefix {
	return netsim.NetworkPrefix{0x20, 0x01, 0x0d, 0xb8, byte(site >> 8), byte(site)}
}

// AnycastForSite returns a site's manager anycast address (<prefix>::aaaa).
func AnycastForSite(site int) netip.Addr {
	return netsim.UnicastAddr(SitePrefix(site), 0, 0xaaaa)
}

// NewDeployment builds a network with one manager (serving the standard
// drivers) at the border-router position, plus cfg.Managers-1 redundant
// instances behind the same anycast address.
func NewDeployment(cfg DeploymentConfig) (*Deployment, error) {
	repo := cfg.Repository
	if repo == nil {
		var err error
		repo, err = driver.FullRepository()
		if err != nil {
			return nil, err
		}
	}
	net := netsim.New(netsim.Config{
		LossRate:   cfg.LossRate,
		ProcJitter: cfg.ProcJitter,
		Realtime:   cfg.Realtime,
		TimeScale:  cfg.TimeScale,
		Workers:    cfg.Workers,
		Zones:      cfg.Zones,
		Seed:       cfg.Seed,
	})
	prefix := SitePrefix(cfg.Site)
	mgrAddr := netsim.UnicastAddr(prefix, 0, 1) // site 0: the classic 2001:db8::1
	anycast := AnycastForSite(cfg.Site)
	mgr, err := manager.New(manager.Config{
		Network:    net,
		Addr:       mgrAddr,
		Anycast:    anycast,
		Repository: repo,
	})
	if err != nil {
		return nil, err
	}
	d := &Deployment{
		Network:  net,
		Manager:  mgr,
		Env:      bus.NewEnvironment(),
		cfg:      cfg,
		prefix:   prefix,
		managerA: anycast,
		managers: []*manager.Manager{mgr},
		repo:     repo,
		images:   vm.NewImages(),
	}
	for i := 1; i < cfg.Managers; i++ {
		if _, err := d.AddManager(); err != nil {
			return nil, err
		}
	}
	return d, nil
}

// AddManager stands up an additional manager instance behind the
// deployment's anycast address, attached below the border router and
// serving the same driver repository. Requests to the anycast land on the
// nearest live instance, so adding managers is transparent to Things and
// clients; failing one (FailManager) re-routes traffic to the survivors.
func (d *Deployment) AddManager() (*manager.Manager, error) {
	mgr, err := manager.New(manager.Config{
		Network:    d.Network,
		Addr:       d.nextAddr(),
		Anycast:    d.managerA,
		Parent:     d.Manager.Node(),
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

// Managers returns the manager instances in creation order, failed ones
// included (index i is stable — FailManager(i) names the same instance for
// the deployment's lifetime).
func (d *Deployment) Managers() []*manager.Manager {
	d.mgrMu.Lock()
	defer d.mgrMu.Unlock()
	return append([]*manager.Manager(nil), d.managers...)
}

// Mgmt returns the instance management requests should be issued through:
// the first live manager, falling back to the first instance when every one
// has failed (its requests then expire like any unreachable peer's).
func (d *Deployment) Mgmt() *manager.Manager {
	d.mgrMu.Lock()
	defer d.mgrMu.Unlock()
	for _, m := range d.managers {
		if !m.Failed() {
			return m
		}
	}
	return d.managers[0]
}

// FailManager crashes manager instance i (creation order) for fault
// injection: the instance leaves the anycast, stops serving, and its pending
// management requests migrate to the nearest surviving instance — re-issued
// with fresh sequence numbers and full timeouts, so callers see at most a
// delayed reply, not a lost one. With no survivor the drained requests fail
// over to their callers as timeouts. In-flight driver installs need no
// migration at all: the requesting Thing's ARQ retransmissions to the
// anycast reach a survivor by themselves.
func (d *Deployment) FailManager(i int) error {
	d.mgrMu.Lock()
	if i < 0 || i >= len(d.managers) {
		n := len(d.managers)
		d.mgrMu.Unlock()
		return fmt.Errorf("core: no manager %d (deployment has %d)", i, n)
	}
	mgr := d.managers[i]
	d.mgrMu.Unlock()
	drained := mgr.Fail()
	if len(drained) == 0 {
		return nil
	}
	survivor := d.Mgmt()
	if survivor.Failed() {
		survivor = nil
	}
	for _, req := range drained {
		switch {
		case survivor == nil:
			if req.OnDiscover != nil {
				req.OnDiscover(nil, reqerr.ErrTimeout)
			}
			if req.OnRemoval != nil {
				req.OnRemoval(reqerr.ErrTimeout)
			}
		case req.OnDiscover != nil:
			survivor.DiscoverDrivers(req.Thing, 0, req.OnDiscover)
		case req.OnRemoval != nil:
			survivor.RemoveDriver(req.Thing, req.Device, 0, req.OnRemoval)
		}
	}
	return nil
}

// Uploads sums the driver uploads served across all manager instances.
func (d *Deployment) Uploads() int {
	d.mgrMu.Lock()
	managers := d.managers
	d.mgrMu.Unlock()
	total := 0
	for _, m := range managers {
		total += m.Uploads()
	}
	return total
}

func (d *Deployment) nextAddr() netip.Addr {
	return d.nextAddrInZone(0)
}

// nextAddrInZone allocates the next host address carrying the given address
// zone (netsim.UnicastAddr); zone 0 reproduces the classic 2001:db8::1xx
// layout, and the byte form lifts the 16-bit host ceiling string formatting
// imposed, so 100k-Thing deployments address cleanly.
func (d *Deployment) nextAddrInZone(zone uint16) netip.Addr {
	d.addrMu.Lock()
	d.hostSeq++
	seq := d.hostSeq
	d.addrMu.Unlock()
	return netsim.UnicastAddr(d.prefix, zone, uint32(0x100+seq))
}

// Close stops the network's clock: in realtime mode it terminates the event
// loop and the worker pool; on a zoned virtual clock it retires the shard
// workers (which a deployment dropped without Close also releases once it
// is collected). Close is idempotent.
func (d *Deployment) Close() { d.Network.Close() }

// AddThing creates a Thing one hop from the manager.
func (d *Deployment) AddThing(name string) (*thing.Thing, error) {
	return d.AddThingAt(name, d.Manager.Node())
}

// AddThingAt creates a Thing attached under the given tree parent, enabling
// multi-hop topologies.
func (d *Deployment) AddThingAt(name string, parent *netsim.Node) (*thing.Thing, error) {
	return thing.New(thing.Config{
		Network:            d.Network,
		Addr:               d.nextAddr(),
		Parent:             parent,
		Manager:            d.managerA,
		Images:             d.images,
		Name:               name,
		StreamPeriod:       d.cfg.StreamPeriod,
		Units:              driver.UnitsTable(),
		PendingReadTimeout: d.cfg.RequestTimeout,
	})
}

// AddThingInZone creates a Thing whose unicast address carries the given
// address zone, attached under parent (nil = the manager/border router).
// On a zone-sharded deployment (DeploymentConfig.Zones > 1) the Thing's
// deliveries and timers then run on that zone's event lane; keeping a zone's
// Things in a common subtree keeps intra-zone traffic intra-lane.
func (d *Deployment) AddThingInZone(name string, zone uint16, parent *netsim.Node) (*thing.Thing, error) {
	if parent == nil {
		parent = d.Manager.Node()
	}
	return thing.New(thing.Config{
		Network:            d.Network,
		Addr:               d.nextAddrInZone(zone),
		Parent:             parent,
		Manager:            d.managerA,
		Images:             d.images,
		Name:               name,
		StreamPeriod:       d.cfg.StreamPeriod,
		Units:              driver.UnitsTable(),
		PendingReadTimeout: d.cfg.RequestTimeout,
	})
}

// AddZonedThing creates a Thing placed in a location zone with the
// structured namespace enabled (the Section 9 extensions): it joins
// zone-scoped and class-wildcard multicast groups for its peripherals, and
// its unicast address carries the zone, so zone-sharded deployments place it
// on the zone's event lane.
func (d *Deployment) AddZonedThing(name string, zone uint16) (*thing.Thing, error) {
	return thing.New(thing.Config{
		Network:             d.Network,
		Addr:                d.nextAddrInZone(zone),
		Parent:              d.Manager.Node(),
		Manager:             d.managerA,
		Images:              d.images,
		Name:                name,
		StreamPeriod:        d.cfg.StreamPeriod,
		Zone:                zone,
		StructuredNamespace: true,
		Units:               driver.UnitsTable(),
		PendingReadTimeout:  d.cfg.RequestTimeout,
	})
}

// PlugCustom plugs a peripheral with an arbitrary identifier and device
// model (the deployment's repository must hold a driver for it).
func (d *Deployment) PlugCustom(t *thing.Thing, ch int, id hw.DeviceID, b hw.BusKind, dev thing.Device) error {
	return d.plug(t, ch, id, b, dev)
}

// AddClient creates a client one hop from the manager.
func (d *Deployment) AddClient() (*client.Client, error) {
	return d.AddClientAt(d.Manager.Node())
}

// AddClientAt creates a client under the given tree parent.
func (d *Deployment) AddClientAt(parent *netsim.Node) (*client.Client, error) {
	return client.New(client.Config{
		Network:        d.Network,
		Addr:           d.nextAddr(),
		Parent:         parent,
		DefaultTimeout: d.cfg.RequestTimeout,
		Retry:          d.cfg.Retry,
	})
}

// AddClientInZone creates a client whose unicast address carries the given
// address zone, attached under parent (nil = the manager/border router). On a
// zone-sharded deployment the client's protocol machinery — reply handling,
// request timers, retransmissions — runs on that zone's event lane, so a
// client serving a zone keeps its traffic intra-lane.
func (d *Deployment) AddClientInZone(zone uint16, parent *netsim.Node) (*client.Client, error) {
	if parent == nil {
		parent = d.Manager.Node()
	}
	return client.New(client.Config{
		Network:        d.Network,
		Addr:           d.nextAddrInZone(zone),
		Parent:         parent,
		DefaultTimeout: d.cfg.RequestTimeout,
		Retry:          d.cfg.Retry,
	})
}

// Run drives the network until idle.
func (d *Deployment) Run() { d.Network.RunUntilIdle(0) }

// RunFor drives the network for a span of virtual time (use for streams,
// which reschedule themselves and never go idle).
func (d *Deployment) RunFor(span time.Duration) {
	d.Network.RunUntil(d.Network.Now() + span)
}

// Quiesce drives the network until idle or until horizon of virtual time has
// elapsed, whichever comes first, reporting whether it went idle — the
// bounded drain to use when streams may be active (they reschedule forever,
// so Run would never return the network idle).
func (d *Deployment) Quiesce(horizon time.Duration) bool {
	return d.Network.RunUntilQuiesced(d.Network.Now() + horizon)
}

// Prefix returns the deployment's 48-bit network prefix.
func (d *Deployment) Prefix() netsim.NetworkPrefix { return d.prefix }

// Group returns the multicast group address for a peripheral type.
func (d *Deployment) Group(id hw.DeviceID) netip.Addr {
	return netsim.MulticastAddr(d.prefix, id)
}

// ---------------------------------------------------------------------------
// Standard peripheral device wrappers

// TMP36Device wires the simulated TMP36 to a channel's ADC.
type TMP36Device struct{ Env *bus.Environment }

// Attach implements thing.Device.
func (d *TMP36Device) Attach(ic *thing.Interconnects) error {
	ic.ADC.Connect(&bus.TMP36{Env: d.Env})
	return nil
}

// Detach implements thing.Device.
func (d *TMP36Device) Detach(ic *thing.Interconnects) { ic.ADC.Connect(nil) }

// HIH4030Device wires the simulated HIH-4030 to a channel's ADC.
type HIH4030Device struct{ Env *bus.Environment }

// Attach implements thing.Device.
func (d *HIH4030Device) Attach(ic *thing.Interconnects) error {
	ic.ADC.Connect(&bus.HIH4030{Env: d.Env})
	return nil
}

// Detach implements thing.Device.
func (d *HIH4030Device) Detach(ic *thing.Interconnects) { ic.ADC.Connect(nil) }

// BMP180Device wires the simulated BMP180 to a channel's I²C bus.
type BMP180Device struct {
	Env *bus.Environment
	dev *bus.BMP180
}

// Attach implements thing.Device.
func (d *BMP180Device) Attach(ic *thing.Interconnects) error {
	d.dev = bus.NewBMP180(d.Env)
	return ic.I2C.Attach(d.dev)
}

// Detach implements thing.Device.
func (d *BMP180Device) Detach(ic *thing.Interconnects) {
	if d.dev != nil {
		ic.I2C.Detach(d.dev.I2CAddr())
		d.dev = nil
	}
}

// RFIDDevice wires the simulated ID-20LA reader to a channel's UART. Present
// cards with PresentCard; remember to Pump the Thing afterwards so the
// driver consumes the bytes.
type RFIDDevice struct {
	reader *bus.ID20LA
}

// Attach implements thing.Device.
func (d *RFIDDevice) Attach(ic *thing.Interconnects) error {
	d.reader = bus.NewID20LA(ic.UART)
	return nil
}

// Detach implements thing.Device.
func (d *RFIDDevice) Detach(ic *thing.Interconnects) { d.reader = nil }

// PresentCard simulates a card entering the reader's field.
func (d *RFIDDevice) PresentCard(cardID string) error {
	if d.reader == nil {
		return fmt.Errorf("core: RFID reader not attached")
	}
	return d.reader.PresentCard(cardID)
}

// ---------------------------------------------------------------------------
// Plug helpers for the four evaluation peripherals

func (d *Deployment) plug(t *thing.Thing, ch int, id hw.DeviceID, b hw.BusKind, dev thing.Device) error {
	p, err := hw.NewPeripheral(hw.PeripheralSpec{ID: id, Bus: b})
	if err != nil {
		return err
	}
	return t.Plug(ch, p, dev)
}

// PlugTMP36 plugs a TMP36 temperature sensor into a channel.
func (d *Deployment) PlugTMP36(t *thing.Thing, ch int) error {
	return d.plug(t, ch, driver.IDTMP36, hw.BusADC, &TMP36Device{Env: d.Env})
}

// PlugHIH4030 plugs an HIH-4030 humidity sensor into a channel.
func (d *Deployment) PlugHIH4030(t *thing.Thing, ch int) error {
	return d.plug(t, ch, driver.IDHIH4030, hw.BusADC, &HIH4030Device{Env: d.Env})
}

// PlugBMP180 plugs a BMP180 pressure sensor into a channel.
func (d *Deployment) PlugBMP180(t *thing.Thing, ch int) error {
	return d.plug(t, ch, driver.IDBMP180, hw.BusI2C, &BMP180Device{Env: d.Env})
}

// PlugRFID plugs an ID-20LA RFID reader into a channel and returns the
// device handle for presenting cards.
func (d *Deployment) PlugRFID(t *thing.Thing, ch int) (*RFIDDevice, error) {
	dev := &RFIDDevice{}
	if err := d.plug(t, ch, driver.IDID20LA, hw.BusUART, dev); err != nil {
		return nil, err
	}
	return dev, nil
}

// ADXLDevice wires the simulated ADXL345 to a channel's SPI bus.
type ADXLDevice struct{ Env *bus.Environment }

// Attach implements thing.Device.
func (d *ADXLDevice) Attach(ic *thing.Interconnects) error {
	ic.SPI.Connect(bus.NewADXL345(d.Env))
	return nil
}

// Detach implements thing.Device.
func (d *ADXLDevice) Detach(ic *thing.Interconnects) { ic.SPI.Connect(nil) }

// PlugADXL345 plugs the extension accelerometer into a channel.
func (d *Deployment) PlugADXL345(t *thing.Thing, ch int) error {
	return d.plug(t, ch, driver.IDADXL345, hw.BusSPI, &ADXLDevice{Env: d.Env})
}

// RelayDevice wires the simulated PCF8574 relay bank to a channel's I²C bus.
type RelayDevice struct {
	relay *bus.PCF8574Relay
}

// Attach implements thing.Device.
func (d *RelayDevice) Attach(ic *thing.Interconnects) error {
	d.relay = &bus.PCF8574Relay{}
	return ic.I2C.Attach(d.relay)
}

// Detach implements thing.Device.
func (d *RelayDevice) Detach(ic *thing.Interconnects) {
	if d.relay != nil {
		ic.I2C.Detach(d.relay.I2CAddr())
		d.relay = nil
	}
}

// State exposes the relay outputs (bit i = relay i energised).
func (d *RelayDevice) State() byte {
	if d.relay == nil {
		return 0
	}
	return d.relay.State()
}

// PlugRelay plugs the extension relay bank into a channel and returns the
// device handle for observing the outputs.
func (d *Deployment) PlugRelay(t *thing.Thing, ch int) (*RelayDevice, error) {
	dev := &RelayDevice{}
	if err := d.plug(t, ch, driver.IDRelay, hw.BusI2C, dev); err != nil {
		return nil, err
	}
	return dev, nil
}
