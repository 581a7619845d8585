// Package thing implements the µPnP Thing: the software running on an
// embedded IoT device with locally connected µPnP hardware (Figure 8). It
// glues together the peripheral controller (hw.ControlBoard), the driver
// manager, the per-driver virtual machines and the network stack, and speaks
// the Section 5 protocol: advertisement, discovery, driver management and
// read/stream/write.
package thing

import (
	"bytes"
	"fmt"
	"net/netip"
	"sync"
	"time"

	"micropnp/internal/bus"
	"micropnp/internal/hw"
	"micropnp/internal/netsim"
	"micropnp/internal/proto"
	"micropnp/internal/vm"
)

// CPU cost constants for the embedded protocol operations, calibrated
// against the Table 4 measurements on the ATMega128RFA1.
const (
	// CostGenerateAddr is the cost of deriving the peripheral's multicast
	// address from the network prefix and hardware identifier.
	CostGenerateAddr = 2590 * time.Microsecond
	// CostJoinGroup covers the local group registration and the RPL/SMRF
	// bookkeeping.
	CostJoinGroup = 5440 * time.Microsecond
	// CostInstallDriver covers bytecode verification and driver activation.
	CostInstallDriver = 26 * time.Millisecond

	// DriverRequestTimeout is how long a Thing waits for a driver upload
	// before retransmitting its install request. Request/upload datagrams
	// can be lost on the 802.15.4 mesh; the paper defers unreliable-network
	// analysis to future work, so retransmission is this reproduction's
	// extension.
	DriverRequestTimeout = 500 * time.Millisecond
	// MaxDriverRequests bounds the retransmissions per plug-in event.
	MaxDriverRequests = 4

	// PendingReadTimeout is the default for Config.PendingReadTimeout,
	// matching the client's default request deadline.
	PendingReadTimeout = 5 * time.Second
)

// Interconnects is the set of simulated buses behind one peripheral channel:
// the control board multiplexes the connector's communication pins onto the
// bus selected by the detected device type (Table 1).
type Interconnects struct {
	UART *bus.UART
	ADC  *bus.ADC
	I2C  *bus.I2C
	SPI  *bus.SPI
}

// NewInterconnects builds a full bus set for one channel.
func NewInterconnects() *Interconnects {
	return &Interconnects{
		UART: bus.NewUART(),
		ADC:  bus.NewADC(),
		I2C:  bus.NewI2C(),
		SPI:  bus.NewSPI(),
	}
}

// Device is the sensor-model side of a simulated peripheral: it wires a
// behavioural device model (bus.TMP36, bus.BMP180, ...) onto a channel's
// interconnects when the peripheral is plugged.
type Device interface {
	Attach(ic *Interconnects) error
	Detach(ic *Interconnects)
}

// PluginTrace records the phases of one peripheral plug-in event — the rows
// of Table 4 plus the hardware identification time of Section 6.1.
type PluginTrace struct {
	DeviceID hw.DeviceID
	Channel  int
	// Identification is the hardware scan time (220–300 ms window).
	Identification time.Duration
	// Energy consumed by the identification scan.
	Energy hw.Joule
	// GenerateAddr, JoinGroup: local CPU phases.
	GenerateAddr time.Duration
	JoinGroup    time.Duration
	// RequestDriver: install request transit + manager lookup (zero when
	// the driver was already installed locally).
	RequestDriver time.Duration
	// InstallDriver: driver upload transit + verification + activation
	// (verification only, when the driver was local).
	InstallDriver time.Duration
	// Advertise: unsolicited advertisement transit to the all-clients group.
	Advertise time.Duration
	// NetworkTotal = GenerateAddr+JoinGroup+RequestDriver+InstallDriver+Advertise.
	NetworkTotal time.Duration
	// Total = Identification + NetworkTotal (the §8 "488.53 ms" figure).
	Total time.Duration
	// Done is set when the plug-in sequence completed.
	Done bool

	requestSentAt time.Duration
}

func (tr *PluginTrace) finish() {
	tr.NetworkTotal = tr.GenerateAddr + tr.JoinGroup + tr.RequestDriver + tr.InstallDriver + tr.Advertise
	tr.Total = tr.Identification + tr.NetworkTotal
	tr.Done = true
}

// Config configures a Thing.
type Config struct {
	Network *netsim.Network
	// Addr is the Thing's unicast IPv6 address.
	Addr netip.Addr
	// Parent attaches the Thing to the RPL tree (nil = root/border router).
	Parent *netsim.Node
	// Manager is the anycast address of the µPnP manager.
	Manager netip.Addr
	// Images is the driver-image table the Thing loads installed drivers
	// through (nil creates a private one). Things sharing a table share one
	// verified, compiled image per distinct driver.
	Images *vm.Images
	// Name labels the Thing in advertisements.
	Name string
	// StreamPeriod is the data production period for streams (default 10 s,
	// the communication rate of Section 6.1).
	StreamPeriod time.Duration
	// Zone places the Thing in a location zone and turns on the structured
	// namespace (the Section 9 extensions). The Thing additionally joins
	// zone-scoped multicast groups, so clients can discover peripherals by
	// physical location; and peripherals whose identifiers decompose into a
	// structured (vendor, class, product) form also join their
	// class-wildcard group, making class-based discovery ("any temperature
	// sensor") work. Zone 0 turns both off.
	Zone uint16
	// Units maps peripheral types to the unit string of the values their
	// drivers return; known units are advertised via the units TLV so
	// clients can label readings without out-of-band knowledge.
	Units map[hw.DeviceID]string
	// PendingReadTimeout is how long the Thing holds an unanswered read
	// before dropping it (0 = the PendingReadTimeout default). Deployments
	// that raise the client request timeout should raise this to match: by
	// the time it fires the requesting client has expired its side, so a
	// late driver return must go to the next read rather than be sent with
	// a stale sequence number the client will discard.
	PendingReadTimeout time.Duration
}

// netScheduler runs a Thing's driver runtimes on the network's clock. A
// driver timer is a Thing event like any other: it takes the Thing's mu.
type netScheduler struct{ t *Thing }

func (s netScheduler) Now() time.Duration { return s.t.node.Now() }
func (s netScheduler) Schedule(d time.Duration, fn func()) {
	s.t.node.Schedule(d, func() {
		s.t.mu.Lock()
		defer s.t.mu.Unlock()
		fn()
	})
}

type slotState struct {
	ic     *Interconnects
	dev    Device
	periph *hw.Peripheral
	id     hw.DeviceID
	rt     *vm.Runtime
}

// pendingRead is one read awaiting a driver return value. Entries are
// recycled through their Thing's own free list; gen is bumped on every
// release so a stale expiry event whose entry was answered and recycled
// into a newer read fails its generation check (pointer identity alone
// cannot catch that ABA). An entry never leaves its Thing, so every field
// is guarded by that Thing's mu: a process-wide pool would hand an entry
// to another Thing while a late expiry of the first still reads it.
type pendingRead struct {
	seq    uint16
	client netip.Addr
	// expiry retracts the typed deadline once the read was answered.
	expiry netsim.ExpiryRef
	gen    uint64
}

// newPendingRead takes an entry off the free list, or allocates one when
// the list is empty.
func (t *Thing) newPendingRead() *pendingRead {
	n := len(t.freeReads)
	if n == 0 {
		return new(pendingRead)
	}
	pr := t.freeReads[n-1]
	t.freeReads = t.freeReads[:n-1]
	return pr
}

// releasePendingRead recycles an entry after it left the pending table.
func (t *Thing) releasePendingRead(pr *pendingRead) {
	pr.gen++
	pr.seq = 0
	pr.client = netip.Addr{}
	pr.expiry = netsim.ExpiryRef{}
	t.freeReads = append(t.freeReads, pr)
}

// streamState is one open stream: a stream is open exactly while it is in
// the Thing's stream table.
type streamState struct {
	group netip.Addr
	seq   uint16
	// fresh marks a stream request since the last tick. That tick runs
	// whatever the group's membership, so a subscriber whose join is still
	// in flight keeps the stream; every later tick needs a member.
	fresh bool
	// chain names the tick chain serving this opening of the stream: a tick
	// scheduled for an earlier opening (closed and re-opened within one
	// period) carries another chain and stops.
	chain uint32
}

// Thing is one simulated µPnP Thing.
//
// One thread of control: a Thing is one MCU, and mu guards all of its
// state. Every event — a datagram handler, a clock callback (plug-in setup,
// driver activation, the install retry, a stream tick, a driver timer), the
// board interrupt or a pending-read expiry — takes mu once and runs to
// completion, driver executions included, so no event sees another's half
// done. The entry points — handle, interrupt, ExpireEvent, the scheduled
// closures and the exported methods — take mu; every other method runs
// with it held. Under mu a Thing may
// send, schedule, join or leave a group and ask GroupHasMembers: the
// network never calls a handler synchronously (deliveries and timers are
// queued events), so the only lock order is mu → the network's locks.
// Two things run before mu: loading a driver through the images table,
// which has its own lock shared by every Thing of a deployment, and the
// board's identification scan.
type Thing struct {
	cfg    Config
	node   *netsim.Node
	board  *hw.ControlBoard
	prefix netsim.NetworkPrefix
	images *vm.Images

	mu    sync.Mutex
	seq   uint16
	slots []*slotState
	// installed maps each locally installed device type to its driver
	// image, shared through images with every Thing that installed the same
	// bytes; the Thing keeps no copy of its own.
	installed map[hw.DeviceID]*vm.Image
	awaiting  map[hw.DeviceID]*PluginTrace
	traces    []*PluginTrace
	// advert is the advertisement of the active peripherals as AppendEncode
	// lays it out, under a placeholder header: every advert sent copies its
	// body (advert[proto.HeaderLen:], the peripheral count and list) after
	// its own type and sequence number. advertDirty marks it stale — every
	// write of a slot's rt, id or periph sets it — and the next advert
	// rebuilds it. advert is nil when the list does not encode (a name or
	// units string too long for a TLV), and then no advert is sent.
	advert      []byte
	advertDirty bool

	// chains counts stream openings; each names its tick chain. A stale
	// tick fires within one period, long before the count could wrap back
	// to its chain.
	chains    uint32
	pending   map[hw.DeviceID][]*pendingRead
	freeReads []*pendingRead
	streams   map[hw.DeviceID]streamState

	// dataScratch is the reusable payload buffer driverReturned packs return
	// values into: the packed bytes are copied into the outgoing pooled
	// datagram before driverReturned returns, so one buffer per Thing
	// suffices.
	dataScratch []byte
}

// New builds and registers a Thing on the network.
func New(cfg Config) (*Thing, error) {
	if cfg.Network == nil {
		return nil, fmt.Errorf("thing: network required")
	}
	node, err := cfg.Network.AddNode(cfg.Addr, cfg.Parent)
	if err != nil {
		return nil, err
	}
	if cfg.Images == nil {
		cfg.Images = vm.NewImages()
	}
	if cfg.StreamPeriod == 0 {
		cfg.StreamPeriod = 10 * time.Second
	}
	if cfg.PendingReadTimeout == 0 {
		cfg.PendingReadTimeout = PendingReadTimeout
	}
	board := hw.NewControlBoard(hw.BoardConfig{})
	t := &Thing{
		cfg:       cfg,
		node:      node,
		board:     board,
		prefix:    netsim.PrefixFromAddr(cfg.Addr),
		images:    cfg.Images,
		installed: map[hw.DeviceID]*vm.Image{},
		awaiting:  map[hw.DeviceID]*PluginTrace{},
		pending:   map[hw.DeviceID][]*pendingRead{},
		streams:   map[hw.DeviceID]streamState{},
		// The first advert encodes the (empty) list.
		advertDirty: true,
	}
	t.slots = make([]*slotState, board.Channels())
	for i := range t.slots {
		t.slots[i] = &slotState{ic: NewInterconnects()}
	}
	// Things subscribe to the all-peripherals group by default (Figure 11),
	// and to its zone-scoped variant when placed in a zone.
	node.JoinGroup(netsim.AllPeripheralsAddr(t.prefix))
	if cfg.Zone != 0 {
		node.JoinGroup(netsim.MulticastAddrZone(t.prefix, cfg.Zone, hw.DeviceIDAllPeripherals))
	}
	node.Bind(t.handle)
	board.OnInterrupt(t.interrupt)
	return t, nil
}

// Addr returns the Thing's unicast address.
func (t *Thing) Addr() netip.Addr { return t.node.Addr() }

// Node exposes the network node (for building trees).
func (t *Thing) Node() *netsim.Node { return t.node }

// Board exposes the control board.
func (t *Thing) Board() *hw.ControlBoard { return t.board }

// Traces returns the plug-in traces recorded so far.
func (t *Thing) Traces() []*PluginTrace {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]*PluginTrace(nil), t.traces...)
}

// InstalledDrivers lists the locally installed driver identifiers.
func (t *Thing) InstalledDrivers() []hw.DeviceID {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]hw.DeviceID, 0, len(t.installed))
	for id := range t.installed {
		out = append(out, id)
	}
	return out
}

// InstalledDriverBytes returns a copy of the installed driver artefact for
// a device type, or nil when none is installed — the byte-level ground
// truth failover tests compare against a no-failure run.
func (t *Thing) InstalledDriverBytes(id hw.DeviceID) []byte {
	t.mu.Lock()
	defer t.mu.Unlock()
	img, ok := t.installed[id]
	if !ok {
		return nil
	}
	return img.Code()
}

// InstallDriver pre-installs a driver artefact locally (factory image).
func (t *Thing) InstallDriver(id hw.DeviceID, code []byte) error {
	img, err := t.images.Load(code)
	if err != nil {
		return err
	}
	if claimed := hw.DeviceID(img.Program().DeviceID); claimed != id {
		return fmt.Errorf("thing: driver claims %v, expected %v", claimed, id)
	}
	t.mu.Lock()
	t.installed[id] = img
	t.mu.Unlock()
	return nil
}

// Runtime exposes the driver runtime serving a device type, or nil. Tests
// and simulations use it to inspect driver state.
func (t *Thing) Runtime(id hw.DeviceID) *vm.Runtime {
	t.mu.Lock()
	defer t.mu.Unlock()
	if slot := t.slotFor(id); slot != nil {
		return slot.rt
	}
	return nil
}

// Plug connects a simulated peripheral (hardware identity + device model)
// to a channel. The control-board interrupt fires, identification runs, and
// the plug-in protocol sequence of Figures 10/11 plays out on the network's
// virtual clock (drive it with Network.RunUntilIdle). A busy channel is
// refused before anything changes: the peripheral already there keeps its
// slot and its device model.
func (t *Thing) Plug(channel int, p *hw.Peripheral, dev Device) error {
	t.mu.Lock()
	// The board has one channel per slot, so this also checks the range.
	if err := t.board.CanPlug(channel); err != nil {
		t.mu.Unlock()
		return err
	}
	slot := t.slots[channel]
	if dev != nil {
		if err := dev.Attach(slot.ic); err != nil {
			t.mu.Unlock()
			return err
		}
	}
	slot.dev = dev
	slot.periph = p
	t.advertDirty = true
	t.mu.Unlock()
	// The board raises its interrupt synchronously, and the interrupt
	// takes mu.
	return t.board.Plug(channel, p)
}

// Unplug disconnects the peripheral on a channel.
func (t *Thing) Unplug(channel int) error {
	_, err := t.board.Unplug(channel)
	return err
}

// interrupt is the control-board ISR: it powers the board, runs the
// identification routine and kicks off (or tears down) the peripheral.
func (t *Thing) interrupt(irq hw.Interrupt) {
	res := t.board.Identify()
	t.mu.Lock()
	defer t.mu.Unlock()
	if !irq.Attached {
		t.teardown(irq.Channel)
		return
	}
	rd := res.Readings[irq.Channel]
	if rd.Err != nil || !rd.Connected {
		return
	}
	trace := &PluginTrace{
		DeviceID:       rd.ID,
		Channel:        irq.Channel,
		Identification: res.Duration,
		Energy:         res.Energy,
	}
	slot := t.slots[irq.Channel]
	slot.id = rd.ID
	t.advertDirty = true
	t.traces = append(t.traces, trace)
	t.setup(irq.Channel, trace)
}

// setup runs the network side of the plug-in sequence under the simulated
// clock: generate address, join group, fetch driver if needed, activate,
// advertise.
func (t *Thing) setup(channel int, trace *PluginTrace) {
	trace.GenerateAddr = CostGenerateAddr
	trace.JoinGroup = CostJoinGroup
	t.node.Schedule(CostGenerateAddr+CostJoinGroup, func() {
		t.mu.Lock()
		defer t.mu.Unlock()
		id := t.slots[channel].id
		if id == 0 {
			return
		}
		t.joinPeripheralGroups(id)
		img, have := t.installed[id]
		if !have {
			trace.requestSentAt = t.node.Now()
			t.awaiting[id] = trace
			t.requestDriver(id, 1)
			return
		}
		t.activate(channel, img, trace)
	})
}

// joinPeripheralGroups joins every group a connected peripheral makes the
// Thing a member of: the exact type group, and in a zone its zone-scoped
// variant and the class-wildcard groups of the structured namespace.
func (t *Thing) joinPeripheralGroups(id hw.DeviceID) {
	t.node.JoinGroup(netsim.MulticastAddr(t.prefix, id))
	if t.cfg.Zone == 0 {
		return
	}
	t.node.JoinGroup(netsim.MulticastAddrZone(t.prefix, t.cfg.Zone, id))
	if s := id.Structured(); s.Class != 0 && s.Vendor != 0 {
		t.node.JoinGroup(netsim.ClassGroup(t.prefix, s.Class))
		t.node.JoinGroup(netsim.MulticastAddrZone(t.prefix, t.cfg.Zone, hw.ClassWildcard(s.Class)))
	}
}

// leavePeripheralGroups undoes joinPeripheralGroups.
func (t *Thing) leavePeripheralGroups(id hw.DeviceID) {
	t.node.LeaveGroup(netsim.MulticastAddr(t.prefix, id))
	if t.cfg.Zone == 0 {
		return
	}
	t.node.LeaveGroup(netsim.MulticastAddrZone(t.prefix, t.cfg.Zone, id))
	if s := id.Structured(); s.Class != 0 && s.Vendor != 0 {
		t.node.LeaveGroup(netsim.ClassGroup(t.prefix, s.Class))
		t.node.LeaveGroup(netsim.MulticastAddrZone(t.prefix, t.cfg.Zone, hw.ClassWildcard(s.Class)))
	}
}

// requestDriver sends a driver install request to the manager and arms a
// retransmission timer: either the request or the upload may be lost on a
// lossy mesh, so the Thing retries up to MaxDriverRequests times.
func (t *Thing) requestDriver(id hw.DeviceID, attempt int) {
	req := &proto.Message{Type: proto.MsgDriverInstallReq, Seq: t.nextSeq(), DeviceID: id}
	t.send(t.cfg.Manager, req)
	if attempt >= MaxDriverRequests {
		return
	}
	t.node.Schedule(DriverRequestTimeout, func() {
		t.mu.Lock()
		defer t.mu.Unlock()
		if _, stillWaiting := t.awaiting[id]; stillWaiting {
			t.requestDriver(id, attempt+1)
		}
	})
}

// activate instantiates and starts an installed driver image after the
// install CPU cost (CostInstallDriver models on-device verification and
// activation; the host verified the image once, when it was loaded), then
// advertises.
func (t *Thing) activate(channel int, img *vm.Image, trace *PluginTrace) {
	installStart := t.node.Now()
	t.node.Schedule(CostInstallDriver, func() {
		t.mu.Lock()
		defer t.mu.Unlock()
		slot := t.slots[channel]
		if slot.id == 0 || slot.rt != nil {
			return
		}
		libs := vm.LibrariesFor(slot.ic.UART, slot.ic.ADC, slot.ic.I2C, slot.ic.SPI)
		// Drivers run on the network's clock so that timeouts, sensor
		// conversions and protocol traffic advance coherently.
		rt, err := vm.NewRuntime(img, netScheduler{t: t}, libs...)
		if err != nil {
			return
		}
		id := slot.id
		rt.OnReturn(func(vals []int32) { t.driverReturned(id, vals) })
		slot.rt = rt
		t.advertDirty = true
		rt.Start()

		if trace != nil {
			trace.InstallDriver += t.node.Now() - installStart
		}
		if pb, _ := t.advertisement(proto.MsgUnsolicitedAdvert, t.nextSeq()); pb != nil {
			// Transit time is computed before SendBuf takes ownership.
			transit := netsim.PacketDelay(len(pb.B), true)
			t.node.SendBuf(netsim.AllClientsAddr(t.prefix), pb)
			if trace != nil {
				trace.Advertise = transit
				trace.finish()
			}
		}
	})
}

// advertisement copies the advertisement of the active peripherals, under
// the given header, into a pooled buffer the caller owns: hand it to SendBuf
// or Release it. It also returns the number of peripherals listed. The
// buffer is nil when the list does not encode.
func (t *Thing) advertisement(typ proto.MsgType, seq uint16) (*netsim.Buf, int) {
	if t.advertDirty {
		t.encodeAdvert()
	}
	if t.advert == nil {
		return nil, 0
	}
	pb := netsim.AcquireBuf()
	body := t.advert[proto.HeaderLen:]
	pb.B = append(proto.AppendHeader(pb.B[:0], typ, seq), body...)
	return pb, int(body[0]) // the body opens with the peripheral count
}

// encodeAdvert rebuilds the cached advertisement from the slots. It runs
// once per change of the active peripherals, not once per advert.
func (t *Thing) encodeAdvert() {
	m := proto.Message{Type: proto.MsgUnsolicitedAdvert}
	for ch, slot := range t.slots {
		if slot.rt == nil {
			continue
		}
		info := proto.PeripheralInfo{ID: slot.id}
		if t.cfg.Name != "" {
			info.TLVs = append(info.TLVs, proto.TLV{Type: proto.TLVName, Value: []byte(t.cfg.Name)})
		}
		if slot.periph != nil {
			info.TLVs = append(info.TLVs, proto.TLV{Type: proto.TLVBusKind, Value: []byte{byte(slot.periph.Bus)}})
		}
		info.TLVs = append(info.TLVs, proto.TLV{Type: proto.TLVChannel, Value: []byte{byte(ch)}})
		if u := t.cfg.Units[slot.id]; u != "" {
			info.TLVs = append(info.TLVs, proto.TLV{Type: proto.TLVUnits, Value: []byte(u)})
		}
		m.Peripherals = append(m.Peripherals, info)
	}
	b, err := m.AppendEncode(nil)
	if err != nil {
		b = nil
	}
	// Every Thing keeps its advert: keep it at its exact size.
	t.advert, t.advertDirty = bytes.Clone(b), false
}

// teardown handles peripheral removal: stop the driver, leave the group,
// advertise the change.
func (t *Thing) teardown(channel int) {
	slot := t.slots[channel]
	if slot.rt != nil {
		slot.rt.Stop()
	}
	if slot.dev != nil {
		slot.dev.Detach(slot.ic)
	}
	id := slot.id
	slot.rt, slot.dev, slot.periph, slot.id = nil, nil, nil, 0
	t.advertDirty = true
	if id != 0 {
		t.stopStream(id)
		t.leavePeripheralGroups(id)
	}
	if pb, _ := t.advertisement(proto.MsgUnsolicitedAdvert, t.nextSeq()); pb != nil {
		t.node.SendBuf(netsim.AllClientsAddr(t.prefix), pb)
	}
}

func (t *Thing) nextSeq() uint16 {
	t.seq++
	return t.seq
}

// send encodes into a pooled buffer and hands it to the network (zero-copy,
// zero-allocation in steady state). Deliberately duplicated across client,
// manager and thing rather than shared behind an interface — see the note in
// netsim/packet.go.
func (t *Thing) send(dst netip.Addr, m *proto.Message) {
	pb := netsim.AcquireBuf()
	b, err := m.AppendEncode(pb.B[:0])
	if err != nil {
		pb.Release()
		return
	}
	pb.B = b
	t.node.SendBuf(dst, pb)
}

// slotFor returns the slot serving a device type, or nil.
func (t *Thing) slotFor(id hw.DeviceID) *slotState {
	if ch := t.channelFor(id); ch >= 0 {
		return t.slots[ch]
	}
	return nil
}

// channelFor returns the channel serving a device type, or -1 when none
// does.
func (t *Thing) channelFor(id hw.DeviceID) int {
	for ch, s := range t.slots {
		if s.id == id && s.rt != nil {
			return ch
		}
	}
	return -1
}

// driverReturned routes a driver return value: to the oldest pending read
// if one exists, otherwise to the open stream's group.
func (t *Thing) driverReturned(id hw.DeviceID, vals []int32) {
	// Pack into the Thing's scratch: send copies the bytes into a pooled
	// network buffer synchronously, so nothing retains data past this call.
	// This shaves one per-read (and per-stream-tick) heap allocation.
	t.dataScratch = proto.AppendValues32(t.dataScratch[:0], vals)
	data := t.dataScratch
	if q := t.pending[id]; len(q) > 0 {
		pr := q[0]
		// Shift down instead of re-slicing: q[1:] would strand the backing
		// array's front, so every enqueue after a drain re-allocated it.
		// Queues are short (normally one entry), so the copy is cheap and
		// the steady-state read path reuses one array forever.
		copy(q, q[1:])
		t.pending[id] = q[:len(q)-1]
		pr.expiry.Cancel()
		t.send(pr.client, &proto.Message{Type: proto.MsgData, Seq: pr.seq, DeviceID: id, Data: data})
		t.releasePendingRead(pr)
		return
	}
	if st, open := t.streams[id]; open {
		t.send(st.group, &proto.Message{Type: proto.MsgData, Seq: st.seq, DeviceID: id, Data: data})
	}
}

// StopStream ends a peripheral's open stream, if any: the stream leaves the
// table and its subscribers get the closed message (15). It is the one close
// path; unplugging the peripheral and removing its driver end the stream
// through it.
func (t *Thing) StopStream(id hw.DeviceID) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.stopStream(id)
}

func (t *Thing) stopStream(id hw.DeviceID) {
	if st, open := t.streams[id]; open {
		delete(t.streams, id)
		t.send(st.group, &proto.Message{Type: proto.MsgClosed, Seq: st.seq, DeviceID: id})
	}
}

// handles reports whether handle serves a datagram, from its first byte
// (the message type) alone: the types of handle's switch. Anything else a
// Thing receives (a client's reply type sent to it by mistake, say) is
// dropped before it is decoded.
func handles(payload []byte) bool {
	if len(payload) == 0 {
		return false
	}
	switch proto.MsgType(payload[0]) {
	case proto.MsgDiscovery, proto.MsgDriverUpload, proto.MsgDriverDiscovery,
		proto.MsgDriverRemovalReq, proto.MsgRead, proto.MsgStream, proto.MsgWrite:
		return true
	}
	return false
}

// handle processes incoming protocol messages. Decoding borrows a pooled
// Decoder: the decoded message is valid only within this call, so deferred
// work (scheduled closures) copies the scalars it needs, and the driver
// upload's bytecode is retained only as the Images table's own copy.
func (t *Thing) handle(msg netsim.Message) {
	if !handles(msg.Payload) {
		return
	}
	dec := proto.AcquireDecoder()
	defer proto.ReleaseDecoder(dec)
	m, err := dec.Decode(msg.Payload)
	if err != nil {
		return
	}
	var img *vm.Image
	if m.Type == proto.MsgDriverUpload {
		// An upload that does not decode and verify is dropped like a lost
		// one: nothing is installed, and the request's retransmission
		// timer, still armed while the device awaits its driver, asks
		// again.
		if img, err = t.images.Load(m.Driver); err != nil {
			return
		}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	switch m.Type {
	case proto.MsgDiscovery:
		t.handleDiscovery(msg, m)
	case proto.MsgDriverUpload:
		t.handleDriverUpload(msg, m, img)
	case proto.MsgDriverDiscovery:
		reply := &proto.Message{Type: proto.MsgDriverAdvert, Seq: m.Seq}
		for id := range t.installed {
			reply.Drivers = append(reply.Drivers, id)
		}
		t.send(msg.Src, reply)
	case proto.MsgDriverRemovalReq:
		t.handleDriverRemoval(msg, m)
	case proto.MsgRead:
		t.handleRead(msg, m)
	case proto.MsgStream:
		t.handleStream(msg, m)
	case proto.MsgWrite:
		t.handleWrite(msg, m)
	}
}

func (t *Thing) handleDiscovery(msg netsim.Message, m *proto.Message) {
	// Reply only when a served peripheral matches the group the discovery
	// was multicast to (the schema's efficient filtering, Section 5.1).
	// Zone-scoped groups are handled by membership: a Thing only receives
	// discoveries for zones it joined. Class wildcards match any slot whose
	// structured identifier carries the class.
	if _, _, id, err := netsim.ParseMulticastZone(msg.Dst); err == nil && id != hw.DeviceIDAllPeripherals {
		match := t.slotFor(id) != nil
		if !match && t.cfg.Zone != 0 {
			if s := id.Structured(); s.IsClassWildcard() {
				for _, slot := range t.slots {
					if slot.rt != nil && slot.id.Structured().Class == s.Class {
						match = true
						break
					}
				}
			}
		}
		if !match {
			return
		}
	}
	pb, n := t.advertisement(proto.MsgSolicitedAdvert, m.Seq)
	if pb == nil {
		return
	}
	if n == 0 {
		pb.Release()
		return
	}
	t.node.SendBuf(msg.Src, pb)
}

// handleDriverUpload installs an uploaded driver, img, loaded from the
// upload before the Thing took mu.
func (t *Thing) handleDriverUpload(msg netsim.Message, m *proto.Message, img *vm.Image) {
	trace := t.awaiting[m.DeviceID]
	delete(t.awaiting, m.DeviceID)
	uploadTransit := netsim.PacketDelay(len(msg.Payload), false)
	if trace != nil {
		// Request phase = send-to-upload-arrival minus the upload's own
		// transit (i.e. request transit + manager lookup).
		trace.RequestDriver = t.node.Now() - trace.requestSentAt - uploadTransit
		// The upload transit belongs to the install phase.
		trace.InstallDriver = uploadTransit
	}
	t.installed[m.DeviceID] = img
	for ch, slot := range t.slots {
		if slot.id == m.DeviceID && slot.rt == nil {
			t.activate(ch, img, trace)
			return
		}
	}
}

func (t *Thing) handleDriverRemoval(msg netsim.Message, m *proto.Message) {
	status := uint8(1)
	if _, ok := t.installed[m.DeviceID]; ok {
		delete(t.installed, m.DeviceID)
		stopped := false
		for _, slot := range t.slots {
			if slot.id == m.DeviceID && slot.rt != nil {
				slot.rt.Stop()
				slot.rt = nil
				t.advertDirty = true
				stopped = true
			}
		}
		if stopped {
			t.stopStream(m.DeviceID)
		}
		status = 0
	}
	t.send(msg.Src, &proto.Message{Type: proto.MsgDriverRemovalAck, Seq: m.Seq, DeviceID: m.DeviceID, Status: status})
}

func (t *Thing) handleRead(msg netsim.Message, m *proto.Message) {
	slot := t.slotFor(m.DeviceID)
	if slot == nil {
		// No such peripheral: empty data reply signals the absence.
		t.send(msg.Src, &proto.Message{Type: proto.MsgData, Seq: m.Seq, DeviceID: m.DeviceID})
		return
	}
	// id is copied out: the expiry event outlives the borrowed decode.
	id := m.DeviceID
	pr := t.newPendingRead()
	pr.seq, pr.client = m.Seq, msg.Src
	t.pending[id] = append(t.pending[id], pr)
	pr.expiry = t.node.ScheduleExpiry(t.cfg.PendingReadTimeout, t, uint64(uint32(id))|pr.gen<<32, pr)
	slot.rt.Post("read")
	slot.rt.RunUntilIdle(0)
}

// ExpireEvent implements netsim.Expirer: it drops a pending read the driver
// never answered (e.g. an RFID read with no card presented within the
// window). seqgen packs the peripheral type (low 32 bits) and the pooled
// entry's generation (upper bits).
func (t *Thing) ExpireEvent(seqgen uint64, tok any) {
	pr := tok.(*pendingRead)
	id := hw.DeviceID(uint32(seqgen))
	t.mu.Lock()
	defer t.mu.Unlock()
	if pr.gen != seqgen>>32 {
		return
	}
	q := t.pending[id]
	for i, e := range q {
		if e == pr {
			t.pending[id] = append(q[:i:i], q[i+1:]...)
			t.releasePendingRead(pr)
			return
		}
	}
}

// handleStream starts (or joins a new subscriber to) the stream of a served
// peripheral. The stream has a group of its own, named after the channel
// that serves it (netsim.StreamGroup), so its data and its close reach only
// the clients that joined it, not every Thing with the peripheral.
func (t *Thing) handleStream(msg netsim.Message, m *proto.Message) {
	ch := t.channelFor(m.DeviceID)
	if ch < 0 {
		return
	}
	group := netsim.StreamGroup(t.node.Addr(), ch)
	st, wasOpen := t.streams[m.DeviceID]
	if !wasOpen {
		t.chains++
		st.chain = t.chains
	}
	st.group, st.seq, st.fresh = group, m.Seq, true
	t.streams[m.DeviceID] = st

	reply := &proto.Message{Type: proto.MsgEstablished, Seq: m.Seq, DeviceID: m.DeviceID}
	copy(reply.Group[:], group.AsSlice())
	t.send(msg.Src, reply)
	if !wasOpen {
		t.scheduleStreamTick(m.DeviceID, st.chain)
	}
}

// scheduleStreamTick produces stream data periodically while the stream is
// open under chain and someone hears it.
func (t *Thing) scheduleStreamTick(id hw.DeviceID, chain uint32) {
	t.node.Schedule(t.cfg.StreamPeriod, func() {
		t.mu.Lock()
		defer t.mu.Unlock()
		if !t.streamHeard(id, chain) {
			return
		}
		slot := t.slotFor(id)
		if slot == nil {
			return
		}
		slot.rt.Post("read")
		slot.rt.RunUntilIdle(0)
		t.scheduleStreamTick(id, chain)
	})
}

// streamHeard reports whether a tick of chain runs: the stream is still open
// under that chain, and it was requested since the last tick or its group
// has a member. The paper defines no unsubscribe, so a stream whose last
// subscriber left its group ends here, silently: it leaves the table and
// its chain stops.
func (t *Thing) streamHeard(id hw.DeviceID, chain uint32) bool {
	st, open := t.streams[id]
	switch {
	case !open || st.chain != chain:
		return false
	case st.fresh:
		st.fresh = false
		t.streams[id] = st
		return true
	case !t.node.GroupHasMembers(st.group):
		delete(t.streams, id)
		return false
	}
	return true
}

func (t *Thing) handleWrite(msg netsim.Message, m *proto.Message) {
	status := uint8(1)
	if slot := t.slotFor(m.DeviceID); slot != nil {
		if vals, err := proto.ParseValues32(m.Data); err == nil {
			slot.rt.Post("write", vals...)
			slot.rt.RunUntilIdle(0)
			status = 0
		}
	}
	t.send(msg.Src, &proto.Message{Type: proto.MsgWriteAck, Seq: m.Seq, DeviceID: m.DeviceID, Status: status})
}
