// Package client implements the µPnP Client: software that remotely
// discovers and uses peripherals hosted by µPnP Things (Section 5). Clients
// may run on embedded devices or standard computers; this implementation
// drives the simulated network.
//
// Every request is tracked in a pending-request table with a virtual-time
// deadline: replies complete the request, lost replies expire it with
// ErrTimeout, and nothing leaks. Completion is callback-based and every
// callback fires exactly once, off the network's clock — under the realtime
// clock that means a pool worker's goroutine — so the public SDK in the
// repository root can wrap this layer in synchronous, context-aware calls
// that block on channels. All Client methods are safe for concurrent use.
//
// An optional RetryPolicy adds an ARQ layer: unanswered unicast reads and
// writes are retransmitted with doubling, jittered backoff inside the
// request's deadline (the paper defers unreliable-network handling; this is
// the reproduction's extension).
package client

import (
	"fmt"
	"math/rand"
	"net/netip"
	"sync"
	"time"

	"micropnp/internal/hw"
	"micropnp/internal/netsim"
	"micropnp/internal/proto"
	"micropnp/internal/reqerr"
)

// DefaultTimeout bounds a request when the caller passes no explicit
// timeout (see reqerr.DefaultTimeout).
const DefaultTimeout = reqerr.DefaultTimeout

// Request errors, shared with the manager via internal/reqerr. ErrTimeout
// matches errors.Is(err, context.DeadlineExceeded).
var (
	ErrTimeout         = reqerr.ErrTimeout
	ErrNoPeripheral    = reqerr.ErrNoPeripheral
	ErrWriteRejected   = reqerr.ErrWriteRejected
	ErrRemovalRejected = reqerr.ErrRemovalRejected
)

// Advert is one peripheral sighting: a Thing's advertisement of a connected
// peripheral, with the metadata its TLVs carried. The view and every
// discovery collector hold one per peripheral, so the fields are ordered
// to pack into 72 bytes.
type Advert struct {
	Thing netip.Addr
	// Name is the Thing's name and Units the unit string of the
	// peripheral's values, each "" when the advert carried none.
	Name  string
	Units string
	// At is the virtual time the advertisement arrived.
	At     time.Duration
	Device hw.DeviceID
	// Channel is the control-board channel serving the peripheral, -1 when
	// the advert carried none.
	Channel int16
	// Solicited distinguishes discovery replies from unsolicited
	// advertisements.
	Solicited bool
}

// decodeTLVs refreshes a's Name, Units and Channel from an advert's TLVs,
// the first tuple of each type winning. A string is replaced only when its
// bytes changed (comparing string(b) with a string does not allocate), so an
// unchanged refresh keeps the strings a already holds and allocates nothing.
func (a *Advert) decodeTLVs(tlvs []proto.TLV) {
	var name, units []byte
	var haveName, haveUnits bool
	a.Channel = -1
	for _, t := range tlvs {
		switch {
		case t.Type == proto.TLVName && !haveName:
			name, haveName = t.Value, true
		case t.Type == proto.TLVUnits && !haveUnits:
			units, haveUnits = t.Value, true
		case t.Type == proto.TLVChannel && a.Channel < 0 && len(t.Value) == 1:
			a.Channel = int16(t.Value[0])
		}
	}
	a.Name = refresh(a.Name, name)
	a.Units = refresh(a.Units, units)
}

// refresh returns s when it already holds b's bytes, and a copy of b
// otherwise.
func refresh(s string, b []byte) string {
	if string(b) == s {
		return s
	}
	return string(b)
}

type pendingKind uint8

const (
	pendingRead pendingKind = iota
	pendingWrite
	pendingDiscover
	pendingSubscribe
)

// pending is one in-flight request. Exactly one of the completion paths
// fires: the matching reply, or the deadline expiry armed after the send.
//
// Entries are pooled: the completion/expiry/retract path that removes the
// entry from the table releases it back to pendingPool. gen survives
// recycling and is bumped on every release (under Client.mu), so a stale
// handle — an expiry event or retract that captured the entry before it was
// recycled into a newer request — fails its generation check and becomes a
// no-op even when the pool hands back the same entry at the same sequence
// number (the identity check alone cannot catch that ABA).
type pending struct {
	kind pendingKind
	// thing and id identify the peer and peripheral a read, write or
	// subscription was addressed to: a data message only completes the read,
	// and an establishment the subscription, when both match (stream data
	// multicast on a stream's group may carry a colliding sequence number
	// chosen by another subscriber). With typ and data (a write's payload)
	// they are also everything a retransmission resends.
	thing      netip.Addr
	id         hw.DeviceID
	typ        proto.MsgType
	data       []byte
	onRead     func([]int32, error)
	onWrite    func(error)
	onDiscover func([]Advert)
	// stream is the handle a subscription establishes.
	stream *Stream
	// adverts collects a discovery's solicited adverts, by value: an advert
	// arriving later in the window rewrites the view entry, not what the
	// discovery collected. The collector is taken from collectorPool with
	// the request and given back on release, so onDiscover must copy what
	// it keeps.
	adverts *[]Advert
	// scratch is the caller-provided value buffer a read reply is parsed
	// into (appended to scratch[:0]; nil parses into a fresh slice) — see
	// ReadInto. The callback's values then alias the scratch and are only
	// valid until the next request reusing it.
	scratch []int32
	// expiry retracts the typed deadline event once a reply completed the
	// request, so finished requests leave no dead deadline in the queue.
	// retx is the next retransmission (RetryPolicy), retracted when the
	// request completes or expires; attempt counts the retransmissions
	// armed so far. All three are written only under Client.mu while the
	// entry is in the table.
	expiry  netsim.ExpiryRef
	retx    netsim.ExpiryRef
	attempt int
	// gen guards pooled reuse (see above). Written only under Client.mu.
	gen uint64
}

// disarm cancels the entry's deadline and retransmission. The caller has
// removed the entry from the table, so no arm can race it.
func (p *pending) disarm() {
	p.expiry.Cancel()
	p.retx.Cancel()
}

// The seq cookie of a request's expiry event packs the sequence number (low
// 16 bits), the retransmission flag and the pooled entry's generation.
const (
	cookieRetx     = 1 << 16
	cookieGenShift = 17
)

var pendingPool = sync.Pool{New: func() any { return new(pending) }}

// collectorPool recycles discovery collectors. Pooled apart from the
// entries, a grown collector array stays with discoveries; carried by the
// entry, it would be kept alive by every pooled entry that ever served one.
var collectorPool = sync.Pool{New: func() any { return new([]Advert) }}

// release recycles a pending entry after its terminal path ran. The caller
// must have removed it from c.pending and fired its callback already; no
// other goroutine may touch the entry's non-gen fields once it left the
// table.
func (c *Client) release(p *pending) {
	c.mu.Lock()
	p.gen++
	c.mu.Unlock()
	p.kind = 0
	p.thing, p.id, p.typ, p.data = netip.Addr{}, 0, 0, nil
	p.onRead, p.onWrite, p.onDiscover, p.stream = nil, nil, nil, nil
	if p.adverts != nil {
		clear(*p.adverts)
		*p.adverts = (*p.adverts)[:0]
		collectorPool.Put(p.adverts)
		p.adverts = nil
	}
	p.scratch = nil
	p.expiry, p.retx, p.attempt = netsim.ExpiryRef{}, netsim.ExpiryRef{}, 0
	pendingPool.Put(p)
}

// RetryPolicy enables automatic retransmission of unanswered unicast
// requests (reads and writes): when no reply arrived BaseBackoff after a
// transmission, the request is retransmitted, up to Attempts extra
// transmissions with doubling backoff and ±50% jitter. The request's
// overall deadline is unchanged — retries happen inside it, and the request
// still expires with ErrTimeout when every transmission goes unanswered.
// Multicast discoveries are never retransmitted (their window closing is
// completion, not failure), nor are stream subscriptions.
type RetryPolicy struct {
	// Attempts is the maximum number of retransmissions after the first
	// send (0 disables retries).
	Attempts int
	// BaseBackoff is the delay before the first retransmission; attempt k
	// waits BaseBackoff<<(k-1), capped at 32*BaseBackoff and jittered by a
	// factor in [0.5, 1.5).
	BaseBackoff time.Duration
}

// maxBackoffShift caps the exponential backoff at BaseBackoff<<5 (32x) so
// long retry budgets spread transmissions across the deadline instead of
// pushing the tail attempts past it.
const maxBackoffShift = 5

func (p RetryPolicy) enabled() bool { return p.Attempts > 0 && p.BaseBackoff > 0 }

// Client is one µPnP client instance.
type Client struct {
	net     *netsim.Network
	node    *netsim.Node
	prefix  netsim.NetworkPrefix
	timeout time.Duration
	retry   RetryPolicy

	mu       sync.Mutex
	retryRng *rand.Rand // backoff jitter; guarded by mu
	seq      uint16
	pending  map[uint16]*pending
	// streams holds the established subscriptions per peripheral type.
	streams map[hw.DeviceID][]*Stream
	// view is the latest advert per (Thing, peripheral) in first-sighting
	// order, bounded by Things × peripherals however many adverts arrive.
	// slots locates each pair's advert in view and keeps the last units
	// string the pair advertised, so a terse refresh never erases it.
	view        []Advert
	slots       map[advertKey]slot
	advertHooks []func(Advert)
}

type advertKey struct {
	thing netip.Addr
	id    hw.DeviceID
}

type slot struct {
	i     int
	units string
}

// Config configures a client.
type Config struct {
	Network *netsim.Network
	Addr    netip.Addr
	Parent  *netsim.Node
	// DefaultTimeout bounds requests made without an explicit timeout
	// (zero = DefaultTimeout).
	DefaultTimeout time.Duration
	// Retry enables automatic retransmission of unanswered unicast reads
	// and writes (zero value disables).
	Retry RetryPolicy
}

// New builds and registers a client. Clients join the all-clients multicast
// group of their network prefix by default (Figure 11), so unsolicited
// advertisements reach them.
func New(cfg Config) (*Client, error) {
	node, err := cfg.Network.AddNode(cfg.Addr, cfg.Parent)
	if err != nil {
		return nil, err
	}
	timeout := cfg.DefaultTimeout
	if timeout <= 0 {
		timeout = DefaultTimeout
	}
	// The jitter stream is seeded per client (from its address), so
	// co-deployed clients desynchronize their retransmissions instead of
	// retrying in lockstep, while each client stays deterministic.
	a16 := cfg.Addr.As16()
	var jitterSeed int64 = 0x6031
	for _, b := range a16 {
		jitterSeed = jitterSeed*131 + int64(b)
	}
	c := &Client{
		net:      cfg.Network,
		node:     node,
		prefix:   netsim.PrefixFromAddr(cfg.Addr),
		timeout:  timeout,
		retry:    cfg.Retry,
		retryRng: rand.New(rand.NewSource(jitterSeed)),
		pending:  map[uint16]*pending{},
		streams:  map[hw.DeviceID][]*Stream{},
		slots:    map[advertKey]slot{},
	}
	node.JoinGroup(netsim.AllClientsAddr(c.prefix))
	node.Bind(c.handle)
	return c, nil
}

// Addr returns the client's unicast address.
func (c *Client) Addr() netip.Addr { return c.node.Addr() }

// Node exposes the network node.
func (c *Client) Node() *netsim.Node { return c.node }

// Adverts returns the latest advert per (Thing, peripheral), in the order
// each pair was first sighted, as a fresh slice the caller owns.
func (c *Client) Adverts() []Advert {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]Advert(nil), c.view...)
}

// AddAdvertHook registers an advertisement listener: every hook fires for
// every incoming advert, solicited or not, so independent consumers (a
// catalog, an application callback) can observe the advert flow without
// clobbering each other. Each hook gets its own copy of the advert. Hooks
// cannot be removed; they live as long as the client.
func (c *Client) AddAdvertHook(fn func(Advert)) {
	if fn == nil {
		return
	}
	c.mu.Lock()
	c.advertHooks = append(c.advertHooks, fn)
	c.mu.Unlock()
}

// Units returns the unit string a Thing advertised for one of its
// peripherals, or "".
func (c *Client) Units(thing netip.Addr, id hw.DeviceID) string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.slots[advertKey{thing, id}].units
}

// Things returns the distinct Things that advertised a given peripheral
// type (hw.DeviceIDAllPeripherals matches any type), in first-sighting
// order.
func (c *Client) Things(id hw.DeviceID) []netip.Addr {
	c.mu.Lock()
	defer c.mu.Unlock()
	seen := map[netip.Addr]bool{}
	var out []netip.Addr
	for _, a := range c.view {
		if (id == hw.DeviceIDAllPeripherals || a.Device == id) && !seen[a.Thing] {
			seen[a.Thing] = true
			out = append(out, a.Thing)
		}
	}
	return out
}

// nextSeqLocked allocates the next sequence number, skipping values still
// bound to an in-flight request, so a 2^16 wrap cannot alias two requests.
// An established stream holds none: its data and close are matched by
// source and peripheral, never by sequence number.
func (c *Client) nextSeqLocked() uint16 {
	for {
		c.seq++
		if c.seq == 0 {
			continue
		}
		if _, busy := c.pending[c.seq]; busy {
			continue
		}
		return c.seq
	}
}

func (c *Client) timeoutOr(t time.Duration) time.Duration {
	if t <= 0 {
		return c.timeout
	}
	return t
}

// nextSeq allocates a sequence number for a fire-and-forget request.
func (c *Client) nextSeq() uint16 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.nextSeqLocked()
}

// register inserts a pending request and returns its sequence number and
// the entry's generation. The caller sends the request, then arms it.
func (c *Client) register(p *pending) (uint16, uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	seq := c.nextSeqLocked()
	c.pending[seq] = p
	return seq, p.gen
}

// pendingLocked reports whether p is still the table's entry for seq at
// generation gen (c.mu held).
func (c *Client) pendingLocked(seq uint16, gen uint64, p *pending) bool {
	cur, ok := c.pending[seq]
	return ok && cur == p && p.gen == gen
}

// arm schedules a registered request's deadline and, under a RetryPolicy,
// a unicast request's first retransmission, as typed clock events
// (netsim.Expirer) — no closure, no allocation. It runs after the send:
// armed before, the deadline could pass before the request left whenever
// another goroutine drives the virtual clock in between. It arms under c.mu
// and only while the entry is still pending (a reply or a retract can land
// between the send and this call), so no orphan event is left behind;
// events never run under a clock lock, so c.mu → clock cannot deadlock. The
// sequence number and the entry's generation travel in the event's seq
// cookie and are checked on firing, so neither a recycled sequence number
// nor a recycled pool entry can expire a newer request.
func (c *Client) arm(seq uint16, gen uint64, p *pending, timeout time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.pendingLocked(seq, gen, p) {
		return
	}
	p.expiry = c.node.ScheduleExpiry(c.timeoutOr(timeout), c, uint64(seq)|gen<<cookieGenShift, p)
	if p.kind == pendingRead || p.kind == pendingWrite {
		c.armRetransmitLocked(seq, gen, p)
	}
}

// armRetransmitLocked schedules the next retransmission of a pending unicast
// request (c.mu held): attempt k fires BaseBackoff<<(k-1), jittered ±50%,
// after the previous transmission, up to RetryPolicy.Attempts.
func (c *Client) armRetransmitLocked(seq uint16, gen uint64, p *pending) {
	if !c.retry.enabled() || p.attempt >= c.retry.Attempts {
		return
	}
	shift := min(p.attempt, maxBackoffShift)
	p.attempt++
	jitter := 0.5 + c.retryRng.Float64()
	delay := time.Duration(float64(c.retry.BaseBackoff<<shift) * jitter)
	p.retx = c.node.ScheduleExpiry(delay, c, uint64(seq)|cookieRetx|gen<<cookieGenShift, p)
}

// ExpireEvent implements netsim.Expirer for a pending request's deadline or
// retransmission (tok *pending, cookie as packed by arm).
func (c *Client) ExpireEvent(cookie uint64, tok any) {
	p := tok.(*pending)
	seq := uint16(cookie)
	gen := cookie >> cookieGenShift
	c.mu.Lock()
	if !c.pendingLocked(seq, gen, p) {
		c.mu.Unlock()
		return
	}
	if cookie&cookieRetx != 0 {
		// Resend the identical datagram — same sequence number, so a late
		// reply to any transmission completes the request — then arm the
		// next attempt.
		dst := p.thing
		m := proto.Message{Type: p.typ, Seq: seq, DeviceID: p.id, Data: p.data}
		c.mu.Unlock()
		c.send(dst, &m)
		c.mu.Lock()
		if c.pendingLocked(seq, gen, p) {
			c.armRetransmitLocked(seq, gen, p)
		}
		c.mu.Unlock()
		return
	}
	delete(c.pending, seq)
	c.mu.Unlock()
	p.retx.Cancel()
	switch p.kind {
	case pendingRead:
		if p.onRead != nil {
			p.onRead(nil, ErrTimeout)
		}
	case pendingWrite:
		if p.onWrite != nil {
			p.onWrite(ErrTimeout)
		}
	case pendingDiscover:
		// A discovery window closing is completion, not failure: deliver
		// whatever arrived.
		if p.onDiscover != nil {
			p.onDiscover(*p.adverts)
		}
	case pendingSubscribe:
		p.stream.expire()
	}
	c.release(p)
}

// send encodes into a pooled buffer and hands it to the network (zero-copy,
// zero-allocation in steady state). Deliberately duplicated across client,
// manager and thing rather than shared behind an interface — see the note in
// netsim/packet.go.
func (c *Client) send(dst netip.Addr, m *proto.Message) {
	pb := netsim.AcquireBuf()
	b, err := m.AppendEncode(pb.B[:0])
	if err != nil {
		pb.Release()
		return
	}
	pb.B = b
	c.node.SendBuf(dst, pb)
}

// Pending returns the number of in-flight requests (reads, writes,
// discoveries and subscriptions awaiting completion or establishment), each
// counted from its registration, just before its send, until a reply, its
// deadline, a retract or the subscription's Close removes it. An
// established stream is not counted.
func (c *Client) Pending() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.pending)
}

// retract withdraws an in-flight request without firing its callback: the
// pending entry is removed and its expiry and retransmission events are
// cancelled. Used by the SDK when the caller's context is done — the caller
// has already returned, so neither a late reply nor the deadline may complete
// the request. Retracting an already-completed request is a no-op.
func (c *Client) retract(seq uint16, gen uint64, p *pending) {
	c.mu.Lock()
	cur, ok := c.pending[seq]
	if !ok || cur != p || p.gen != gen {
		c.mu.Unlock()
		return
	}
	delete(c.pending, seq)
	c.mu.Unlock()
	p.disarm()
	c.release(p)
}

// noRetract is returned for fire-and-forget requests with nothing to
// withdraw.
func noRetract() {}

// Discover multicasts a peripheral discovery (message 2) to the group of
// Things serving the given peripheral type. When done is non-nil it fires
// once the discovery window (timeout, 0 = the default) closes, with every
// solicited advertisement the request gathered, as each arrived. The slice
// is lent for the call only: the request's entry reuses it, so done copies
// what it keeps. A nil done is fire-and-forget — observe results via
// Adverts/Things/AddAdvertHook. The returned retract withdraws the request
// without firing done (see retract).
func (c *Client) Discover(id hw.DeviceID, timeout time.Duration, done func([]Advert), filter ...proto.TLV) (retract func()) {
	return c.discoverGroup(netsim.MulticastAddr(c.prefix, id), timeout, done, filter)
}

// DiscoverClass discovers any peripheral of a device class, regardless of
// vendor or product — the Section 9 hierarchical-typing extension. Only
// Things running with the structured namespace respond.
func (c *Client) DiscoverClass(class uint8, timeout time.Duration, done func([]Advert), filter ...proto.TLV) (retract func()) {
	return c.Discover(hw.ClassWildcard(class), timeout, done, filter...)
}

// DiscoverInZone discovers a peripheral type within a location zone — the
// Section 9 location-aware multicast extension. Only Things placed in the
// zone receive the discovery.
func (c *Client) DiscoverInZone(zone uint16, id hw.DeviceID, timeout time.Duration, done func([]Advert), filter ...proto.TLV) (retract func()) {
	return c.discoverGroup(netsim.MulticastAddrZone(c.prefix, zone, id), timeout, done, filter)
}

func (c *Client) discoverGroup(group netip.Addr, timeout time.Duration, done func([]Advert), filter []proto.TLV) (retract func()) {
	m := proto.Message{Type: proto.MsgDiscovery, Filter: filter}
	if done == nil {
		m.Seq = c.nextSeq()
		c.send(group, &m)
		return noRetract
	}
	p := pendingPool.Get().(*pending)
	p.kind, p.onDiscover, p.adverts = pendingDiscover, done, collectorPool.Get().(*[]Advert)
	seq, gen := c.register(p)
	m.Seq = seq
	c.send(group, &m)
	c.arm(seq, gen, p, timeout)
	return func() { c.retract(seq, gen, p) }
}

// Read requests a single value from a peripheral (messages 10/11). The
// callback fires exactly once: with the decoded values, or with an error —
// ErrTimeout when no reply arrives within the timeout (0 = the default),
// ErrNoPeripheral when the Thing serves no such device, or a decode error
// for a malformed reply. With a RetryPolicy configured, unanswered requests
// are retransmitted with backoff inside the deadline. The returned retract
// withdraws the request without firing cb (see retract).
func (c *Client) Read(thing netip.Addr, id hw.DeviceID, timeout time.Duration, cb func([]int32, error)) (retract func()) {
	return c.ReadInto(thing, id, nil, timeout, cb)
}

// ReadInto is Read with a caller-provided scratch buffer: the reply's values
// are parsed by appending into scratch[:0] (growing it only when capacity is
// short) instead of allocating a fresh slice, so a caller that recycles the
// values handed to its callback as the next call's scratch performs
// steady-state reads without the per-read value allocation. The values
// passed to cb alias the scratch: they are valid only until the caller
// reuses it, and must be copied to be retained. One outstanding request per
// scratch buffer — issuing a second ReadInto with the same scratch before
// the first callback fired would let the two replies race on the buffer.
// A nil scratch parses into a fresh slice, as Read does.
func (c *Client) ReadInto(thing netip.Addr, id hw.DeviceID, scratch []int32, timeout time.Duration, cb func([]int32, error)) (retract func()) {
	var p *pending
	if cb != nil {
		p = pendingPool.Get().(*pending)
		p.kind, p.onRead, p.scratch = pendingRead, cb, scratch
	}
	return c.unicast(p, proto.MsgRead, thing, id, nil, timeout)
}

// Write sends a value to a peripheral, e.g. an actuator (messages 16/17).
// The callback fires exactly once with nil on acknowledgement, ErrTimeout
// on expiry, or ErrWriteRejected on a negative acknowledgement. With a
// RetryPolicy configured, unanswered requests are retransmitted with
// backoff inside the deadline. Writes are assumed idempotent at the Thing
// (the driver re-applies the same values); callers for whom duplicate
// application matters should not enable retries. The returned retract
// withdraws the request without firing cb (see retract).
func (c *Client) Write(thing netip.Addr, id hw.DeviceID, vals []int32, timeout time.Duration, cb func(error)) (retract func()) {
	var p *pending
	if cb != nil {
		p = pendingPool.Get().(*pending)
		p.kind, p.onWrite = pendingWrite, cb
	}
	return c.unicast(p, proto.MsgWrite, thing, id, proto.Values32(vals), timeout)
}

// unicast sends a read or write request to a Thing. A non-nil p is tracked:
// registered before the send and armed after it (see arm); a nil p is
// fire-and-forget.
func (c *Client) unicast(p *pending, typ proto.MsgType, thing netip.Addr, id hw.DeviceID, data []byte, timeout time.Duration) (retract func()) {
	m := proto.Message{Type: typ, DeviceID: id, Data: data}
	if p == nil {
		m.Seq = c.nextSeq()
		c.send(thing, &m)
		return noRetract
	}
	p.thing, p.id, p.typ, p.data = thing, id, typ, data
	seq, gen := c.register(p)
	m.Seq = seq
	c.send(thing, &m)
	c.arm(seq, gen, p, timeout)
	return func() { c.retract(seq, gen, p) }
}

// ---------------------------------------------------------------------------
// Streams

// Stream is one subscription handle to a peripheral's value stream
// (messages 12–15). Handles replace the former per-DeviceID callback map:
// several subscriptions to the same peripheral type coexist, and each is
// closed independently.
type Stream struct {
	c     *Client
	thing netip.Addr
	id    hw.DeviceID
	// seq is the subscribe request's sequence number, which keys its
	// pending entry while the subscription awaits establishment.
	seq uint16

	mu          sync.Mutex
	group       netip.Addr
	established bool
	closed      bool
	onData      func([]int32)
	onClosed    func()
	// onEstablishedHook fires once on establishment or expiry; cleared
	// afterwards.
	onEstablishedHook func(error)
}

// SubscribeOptions configures a stream subscription.
type SubscribeOptions struct {
	// Timeout bounds stream establishment (0 = the client default).
	Timeout time.Duration
	// OnData receives each decoded data message.
	OnData func([]int32)
	// OnClosed fires when the Thing closes the stream.
	OnClosed func()
	// OnEstablished fires once: with nil when the Thing answered with the
	// stream's multicast group, or with ErrTimeout on expiry.
	OnEstablished func(error)
}

// DeviceID returns the peripheral type the stream serves.
func (s *Stream) DeviceID() hw.DeviceID { return s.id }

// Established reports whether the Thing acknowledged the subscription.
func (s *Stream) Established() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.established
}

// Closed reports whether the stream ended (Thing-side close or local Close).
func (s *Stream) Closed() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closed
}

// Close unsubscribes locally: the handle stops receiving data, a
// subscription still awaiting establishment leaves the pending table (a
// late establishment then joins nothing), and the node leaves the stream's
// multicast group once no other handle needs it. The Thing is not told; it
// ends the stream at a tick that finds the group empty.
func (s *Stream) Close() {
	s.c.closeStream(s, false)
}

// Subscribe requests a peripheral's value stream from a Thing. The Thing
// replies with the multicast group to join; data then arrives on the group
// until the Thing closes the stream or the handle is Closed. The request is
// a pending entry like a read, but it is never retransmitted (RetryPolicy).
func (c *Client) Subscribe(thing netip.Addr, id hw.DeviceID, opts SubscribeOptions) *Stream {
	s := &Stream{c: c, thing: thing, id: id, onData: opts.OnData, onClosed: opts.OnClosed,
		onEstablishedHook: opts.OnEstablished}
	p := pendingPool.Get().(*pending)
	p.kind, p.thing, p.id, p.stream = pendingSubscribe, thing, id, s
	seq, gen := c.register(p)
	s.seq = seq
	c.send(thing, &proto.Message{Type: proto.MsgStream, Seq: seq, DeviceID: id})
	c.arm(seq, gen, p, opts.Timeout)
	return s
}

// expire ends a subscription whose establishment deadline passed.
func (s *Stream) expire() {
	s.mu.Lock()
	s.closed = true
	onEst := s.onEstablishedHook
	s.onEstablishedHook = nil
	s.mu.Unlock()
	if onEst != nil {
		onEst(ErrTimeout)
	}
}

// closeStream detaches a handle; thingClosed distinguishes the Thing's close
// message (which fires OnClosed) from a local Close.
func (c *Client) closeStream(s *Stream, thingClosed bool) {
	c.mu.Lock()
	list := c.streams[s.id]
	idx := -1
	for i, x := range list {
		if x == s {
			idx = i
			break
		}
	}
	if idx >= 0 {
		c.streams[s.id] = append(list[:idx:idx], list[idx+1:]...)
	}
	// A handle still awaiting establishment leaves the pending table, with
	// no callback: the caller closing it no longer waits for one.
	p, awaiting := c.pending[s.seq]
	awaiting = awaiting && p.stream == s
	if awaiting {
		delete(c.pending, s.seq)
	}
	s.mu.Lock()
	alreadyClosed := s.closed
	s.closed = true
	group := s.group
	joined := s.established
	onClosed := s.onClosed
	s.mu.Unlock()
	leave := joined && group.IsValid() && !c.groupStillNeededLocked(group)
	c.mu.Unlock()
	if awaiting {
		p.disarm()
		c.release(p)
	}
	if leave {
		c.node.LeaveGroup(group)
	}
	if thingClosed && !alreadyClosed && onClosed != nil {
		onClosed()
	}
}

// groupStillNeededLocked reports whether any live established stream still
// listens on the group (c.mu held).
func (c *Client) groupStillNeededLocked(group netip.Addr) bool {
	for _, list := range c.streams {
		for _, s := range list {
			s.mu.Lock()
			need := s.established && !s.closed && s.group == group
			s.mu.Unlock()
			if need {
				return true
			}
		}
	}
	return false
}

// handle processes incoming protocol messages. Decoding borrows a pooled
// Decoder — the decoded message (and msg.Payload it aliases) is valid only
// within this call, so anything retained is copied out of it.
func (c *Client) handle(msg netsim.Message) {
	dec := proto.AcquireDecoder()
	defer proto.ReleaseDecoder(dec)
	m, err := dec.Decode(msg.Payload)
	if err != nil {
		return
	}
	switch m.Type {
	case proto.MsgUnsolicitedAdvert, proto.MsgSolicitedAdvert:
		c.handleAdvert(msg, m)

	case proto.MsgData:
		// Read replies are unicast from the addressed Thing for the
		// requested peripheral; anything else with a matching sequence
		// number (stream data on a stream's multicast group, where another
		// subscriber chose the number) must not complete a pending read.
		c.mu.Lock()
		if p, ok := c.pending[m.Seq]; ok && p.kind == pendingRead &&
			!msg.Dst.IsMulticast() && msg.Src == p.thing && m.DeviceID == p.id {
			delete(c.pending, m.Seq)
			c.mu.Unlock()
			p.disarm()
			c.completeRead(p, m)
			c.release(p)
			return
		}
		c.mu.Unlock()
		// Stream data arrives on the multicast group; a unicast data
		// message that matched no pending read (e.g. a reply landing after
		// its expiry) must not masquerade as stream data.
		if msg.Dst.IsMulticast() {
			c.routeStreamData(msg.Src, m)
		}

	case proto.MsgWriteAck:
		c.mu.Lock()
		p, ok := c.pending[m.Seq]
		ok = ok && p.kind == pendingWrite
		if ok {
			delete(c.pending, m.Seq)
		}
		c.mu.Unlock()
		if ok {
			p.disarm()
			if p.onWrite != nil {
				if m.Status == 0 {
					p.onWrite(nil)
				} else {
					p.onWrite(ErrWriteRejected)
				}
			}
			c.release(p)
		}

	case proto.MsgEstablished:
		group, okAddr := netip.AddrFromSlice(m.Group[:])
		if !okAddr {
			return
		}
		// Only the subscribed Thing can establish the stream, and only for
		// the subscribed peripheral: another node that guesses the pending
		// sequence number must not make the client join its group.
		c.mu.Lock()
		p, ok := c.pending[m.Seq]
		ok = ok && p.kind == pendingSubscribe && msg.Src == p.thing && m.DeviceID == p.id
		var s *Stream
		if ok {
			delete(c.pending, m.Seq)
			s = p.stream
			c.streams[s.id] = append(c.streams[s.id], s)
		}
		c.mu.Unlock()
		if !ok {
			return
		}
		p.disarm()
		c.release(p)
		s.mu.Lock()
		s.group = group
		s.established = true
		onEst := s.onEstablishedHook
		s.onEstablishedHook = nil
		s.mu.Unlock()
		c.node.JoinGroup(group)
		if onEst != nil {
			onEst(nil)
		}

	case proto.MsgClosed:
		// Close only the subscriptions served by the closing Thing. A
		// stream's group is its Thing's own (netsim.StreamGroup), so an
		// honest close comes only from that Thing; the source check is a
		// defence against a close forged by another node on the group.
		c.mu.Lock()
		var subs []*Stream
		for _, s := range c.streams[m.DeviceID] {
			if s.thing == msg.Src {
				subs = append(subs, s)
			}
		}
		c.mu.Unlock()
		for _, s := range subs {
			c.closeStream(s, true)
		}
	}
}

// routeStreamData delivers group data to the live subscriptions of the
// peripheral type served by the sending Thing. Each stream has a group of its
// own (netsim.StreamGroup), so honest data comes only from the subscribed
// Thing; the source and type checks are a defence against data forged by
// another node on the group, which must not be attributed to this handle's
// Thing.
func (c *Client) routeStreamData(src netip.Addr, m *proto.Message) {
	c.mu.Lock()
	var subs []*Stream
	for _, s := range c.streams[m.DeviceID] {
		if s.thing == src {
			subs = append(subs, s)
		}
	}
	c.mu.Unlock()
	if len(subs) == 0 {
		return
	}
	vals, err := proto.ParseValues32(m.Data)
	if err != nil {
		return
	}
	for _, s := range subs {
		s.mu.Lock()
		cb := s.onData
		dead := s.closed
		s.mu.Unlock()
		if !dead && cb != nil {
			cb(vals)
		}
	}
}

// completeRead decodes a data reply and fires the read callback.
func (c *Client) completeRead(p *pending, m *proto.Message) {
	if p.onRead == nil {
		return
	}
	if len(m.Data) == 0 {
		// The Thing's empty reply signals the peripheral's absence.
		p.onRead(nil, ErrNoPeripheral)
		return
	}
	vals, err := proto.AppendParseValues32(p.scratch[:0], m.Data)
	if err != nil {
		p.onRead(nil, fmt.Errorf("micropnp: malformed data reply: %w", err))
		return
	}
	p.onRead(vals, nil)
}

// handleAdvert folds advertisements into the view, routes solicited replies
// to their discovery collector, and fires the advert hooks. Each peripheral
// is decoded straight into its (Thing, peripheral) view entry; the
// collector and the hooks get copies of the entry.
func (c *Client) handleAdvert(msg netsim.Message, m *proto.Message) {
	solicited := m.Type == proto.MsgSolicitedAdvert
	// Hooks get values from a buffer on this handler's stack: handlers run
	// concurrently under the realtime clock, so no client-wide scratch.
	var buf [hw.DefaultChannels]Advert
	fired := buf[:0]
	c.mu.Lock()
	now := c.node.Now()
	hooks := c.advertHooks
	var pd *pending
	if p, ok := c.pending[m.Seq]; solicited && ok && p.kind == pendingDiscover {
		pd = p
	}
	for _, p := range m.Peripherals {
		k := advertKey{msg.Src, p.ID}
		s, seen := c.slots[k]
		if !seen {
			s.i = len(c.view)
			c.view = append(c.view, Advert{Thing: msg.Src, Device: p.ID})
		}
		a := &c.view[s.i]
		a.decodeTLVs(p.TLVs)
		a.Solicited, a.At = solicited, now
		// Most adverts repeat what the slot holds: store it back (one more
		// hash of k) only when it is new or its units changed.
		changed := !seen
		if a.Units != "" && a.Units != s.units {
			s.units, changed = a.Units, true
		}
		if changed {
			c.slots[k] = s
		}
		if pd != nil {
			*pd.adverts = append(*pd.adverts, *a)
		}
		if len(hooks) > 0 {
			fired = append(fired, *a)
		}
	}
	c.mu.Unlock()
	for _, a := range fired {
		for _, hook := range hooks {
			hook(a)
		}
	}
}
