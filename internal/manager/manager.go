// Package manager implements the µPnP Manager: the server-class entity that
// hosts the driver repository and manages over-the-air deployment and remote
// configuration of drivers on µPnP Things (Section 5). Managers are reached
// through an anycast address, allowing network-level redundancy — requests
// land on the nearest manager instance.
package manager

import (
	"net/netip"
	"sort"
	"sync"
	"time"

	"micropnp/internal/driver"
	"micropnp/internal/hw"
	"micropnp/internal/netsim"
	"micropnp/internal/proto"
	"micropnp/internal/reqerr"
)

// CostLookup is the repository lookup cost charged per driver install
// request (server-side processing before the upload starts).
const CostLookup = 26 * time.Millisecond

// DefaultTimeout bounds management requests made without an explicit
// timeout, mirroring the client-side default (see reqerr.DefaultTimeout).
const DefaultTimeout = reqerr.DefaultTimeout

// Manager is one µPnP manager instance.
type Manager struct {
	net     *netsim.Network
	node    *netsim.Node
	repo    *driver.Repository
	anycast netip.Addr

	mu      sync.Mutex
	seq     uint16
	failed  bool
	uploads int
	// advertisements from driver discovery, keyed by Thing address.
	discovered map[netip.Addr][]hw.DeviceID
	pending    map[uint16]*mgmtReq
}

// mgmtReq is one pending management request. Exactly one callback field is
// set; like the client's table, entries expire at their deadline instead of
// leaking.
type mgmtReq struct {
	// thing is the peer the request was addressed to; replies from any
	// other address must not complete it (a recycled sequence number could
	// otherwise let Thing A's stale advert answer a request aimed at B).
	thing netip.Addr
	// dev is the device a removal request targets, kept so a failed
	// manager's pending removals can be re-issued through a survivor.
	dev        hw.DeviceID
	onDiscover func([]hw.DeviceID, error)
	onRemoval  func(error)
	// expiry retracts the deadline once a reply completed the request.
	// Guarded by Manager.mu.
	expiry netsim.ExpiryRef
}

// PendingRequest is one management request drained from a failed manager's
// pending table, carrying everything a surviving instance needs to adopt it.
type PendingRequest struct {
	// Thing is the peer the request was addressed to.
	Thing netip.Addr
	// Device is the removal target (zero for discovery requests).
	Device hw.DeviceID
	// Exactly one callback is non-nil, matching the original request kind.
	OnDiscover func([]hw.DeviceID, error)
	OnRemoval  func(error)
}

// Config configures a manager instance.
type Config struct {
	Network *netsim.Network
	// Addr is this instance's unicast address.
	Addr netip.Addr
	// Anycast is the shared µPnP-manager anycast address.
	Anycast netip.Addr
	// Parent attaches the instance to the topology (usually the border
	// router / DODAG root side).
	Parent *netsim.Node
	// Repository of drivers (nil starts empty).
	Repository *driver.Repository
}

// New builds and registers a manager.
func New(cfg Config) (*Manager, error) {
	node, err := cfg.Network.AddNode(cfg.Addr, cfg.Parent)
	if err != nil {
		return nil, err
	}
	repo := cfg.Repository
	if repo == nil {
		repo = driver.NewRepository()
	}
	m := &Manager{
		net:        cfg.Network,
		node:       node,
		repo:       repo,
		anycast:    cfg.Anycast,
		discovered: map[netip.Addr][]hw.DeviceID{},
		pending:    map[uint16]*mgmtReq{},
	}
	node.Bind(m.handle)
	if cfg.Anycast.IsValid() {
		cfg.Network.JoinAnycast(cfg.Anycast, node)
	}
	return m, nil
}

// Node exposes the manager's network node.
func (m *Manager) Node() *netsim.Node { return m.node }

// Repository exposes the driver store.
func (m *Manager) Repository() *driver.Repository { return m.repo }

// Uploads returns the number of driver uploads served.
func (m *Manager) Uploads() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.uploads
}

// Discovered returns the last driver advertisement received from a Thing.
func (m *Manager) Discovered(thing netip.Addr) []hw.DeviceID {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]hw.DeviceID(nil), m.discovered[thing]...)
}

// nextSeqLocked allocates the next sequence number, skipping values still
// bound to an in-flight management request so a 2^16 wrap cannot alias two
// requests (mirroring the client's allocator). m.mu held.
func (m *Manager) nextSeqLocked() uint16 {
	for {
		m.seq++
		if m.seq == 0 {
			continue
		}
		if _, busy := m.pending[m.seq]; busy {
			continue
		}
		return m.seq
	}
}

func (m *Manager) nextSeq() uint16 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.nextSeqLocked()
}

// request stamps msg with a fresh sequence number and sends it to dst. A
// non-nil req is tracked: it enters the pending table before the send, and
// its deadline is armed after it — armed before, the deadline could pass
// before the request left whenever another goroutine drives the virtual
// clock in between. A nil req is fire-and-forget.
func (m *Manager) request(dst netip.Addr, msg *proto.Message, req *mgmtReq, timeout time.Duration) (retract func()) {
	if req == nil {
		msg.Seq = m.nextSeq()
		m.send(dst, msg)
		return noRetract
	}
	m.mu.Lock()
	seq := m.nextSeqLocked()
	m.pending[seq] = req
	m.mu.Unlock()
	msg.Seq = seq
	m.send(dst, msg)
	if timeout <= 0 {
		timeout = DefaultTimeout
	}
	// Armed under m.mu and only while the request is still pending, so a
	// reply or a retract racing the send leaves no orphan event (events
	// never run under a clock lock, so m.mu → clock cannot deadlock).
	m.mu.Lock()
	if m.pending[seq] == req {
		req.expiry = m.node.ScheduleExpiry(timeout, m, uint64(seq), req)
	}
	m.mu.Unlock()
	return func() { m.retract(seq, req) }
}

// ExpireEvent implements netsim.Expirer: the deadline of the pending request
// req registered under seq. The entry is compared by identity, so a recycled
// sequence number can never expire a newer request.
func (m *Manager) ExpireEvent(seq uint64, tok any) {
	req := tok.(*mgmtReq)
	m.mu.Lock()
	if m.pending[uint16(seq)] != req {
		m.mu.Unlock()
		return
	}
	delete(m.pending, uint16(seq))
	m.mu.Unlock()
	if req.onDiscover != nil {
		req.onDiscover(nil, reqerr.ErrTimeout)
	}
	if req.onRemoval != nil {
		req.onRemoval(reqerr.ErrTimeout)
	}
}

// send is deliberately duplicated across client, manager and thing rather
// than shared behind an interface — see the note in netsim/packet.go. A
// failed instance transmits nothing: scheduled work (a repository lookup in
// flight when the crash hit) dies silently, like the process it models.
func (m *Manager) send(dst netip.Addr, msg *proto.Message) {
	if m.Failed() {
		return
	}
	pb := netsim.AcquireBuf()
	b, err := msg.AppendEncode(pb.B[:0])
	if err != nil {
		pb.Release()
		return
	}
	pb.B = b
	m.node.SendBuf(dst, pb)
}

// Failed reports whether Fail was called on this instance.
func (m *Manager) Failed() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.failed
}

// Fail crashes the manager process while its router node keeps relaying:
// the instance leaves the manager anycast (new requests route to the nearest
// survivor), unbinds its datagram handler (datagrams already in flight to it
// drop as NoHandler), stops transmitting, and drains its pending management
// table. The drained requests are returned in ascending sequence order —
// deterministic, so virtual-mode failover migration replays identically —
// for the caller to re-issue through a surviving instance or fail over to
// the requester. Fail is idempotent; repeat calls return nil.
func (m *Manager) Fail() []PendingRequest {
	m.mu.Lock()
	if m.failed {
		m.mu.Unlock()
		return nil
	}
	m.failed = true
	seqs := make([]uint16, 0, len(m.pending))
	for seq := range m.pending {
		seqs = append(seqs, seq)
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	drained := make([]PendingRequest, 0, len(seqs))
	for _, seq := range seqs {
		req := m.pending[seq]
		delete(m.pending, seq)
		req.expiry.Cancel()
		drained = append(drained, PendingRequest{
			Thing:      req.thing,
			Device:     req.dev,
			OnDiscover: req.onDiscover,
			OnRemoval:  req.onRemoval,
		})
	}
	m.mu.Unlock()
	if m.anycast.IsValid() {
		m.net.LeaveAnycast(m.anycast, m.node)
	}
	m.node.Unbind()
	return drained
}

// Pending returns the number of in-flight management requests.
func (m *Manager) Pending() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.pending)
}

// retract withdraws an in-flight management request without firing its
// callback (the SDK uses it when the caller's context is done). Retracting a
// completed request is a no-op.
func (m *Manager) retract(seq uint16, req *mgmtReq) {
	m.mu.Lock()
	cur, ok := m.pending[seq]
	if !ok || cur != req {
		m.mu.Unlock()
		return
	}
	delete(m.pending, seq)
	req.expiry.Cancel()
	m.mu.Unlock()
}

// noRetract is returned for fire-and-forget requests.
func noRetract() {}

// DiscoverDrivers queries a Thing for its installed drivers (messages 6/7).
// The callback fires exactly once: with the advertised driver list, or with
// reqerr.ErrTimeout when no advertisement arrives within the timeout
// (0 = DefaultTimeout). A nil callback sends fire-and-forget.
func (m *Manager) DiscoverDrivers(thing netip.Addr, timeout time.Duration, cb func([]hw.DeviceID, error)) (retract func()) {
	var req *mgmtReq
	if cb != nil {
		req = &mgmtReq{thing: thing, onDiscover: cb}
	}
	return m.request(thing, &proto.Message{Type: proto.MsgDriverDiscovery}, req, timeout)
}

// RemoveDriver removes a driver from a Thing (messages 8/9). The callback
// fires exactly once: nil on acknowledgement, reqerr.ErrRemovalRejected on
// a negative acknowledgement, reqerr.ErrTimeout on expiry. A nil callback
// sends fire-and-forget.
func (m *Manager) RemoveDriver(thing netip.Addr, id hw.DeviceID, timeout time.Duration, cb func(error)) (retract func()) {
	var req *mgmtReq
	if cb != nil {
		req = &mgmtReq{thing: thing, dev: id, onRemoval: cb}
	}
	return m.request(thing, &proto.Message{Type: proto.MsgDriverRemovalReq, DeviceID: id}, req, timeout)
}

// handle processes protocol messages addressed to the manager. Decoding
// borrows a pooled Decoder; anything retained past this call (the driver
// lists) is copied.
func (m *Manager) handle(msg netsim.Message) {
	dec := proto.AcquireDecoder()
	defer proto.ReleaseDecoder(dec)
	pm, err := dec.Decode(msg.Payload)
	if err != nil {
		return
	}
	switch pm.Type {
	case proto.MsgDriverInstallReq:
		// Charge the repository lookup, then upload if we hold the driver.
		// The decoded message is borrowed scratch — copy the scalars the
		// deferred closure needs.
		id, seq, src := pm.DeviceID, pm.Seq, msg.Src
		m.node.Schedule(CostLookup, func() {
			entry, ok := m.repo.Lookup(id)
			if !ok {
				return
			}
			m.mu.Lock()
			if m.failed {
				// Crashed between accepting the request and finishing the
				// lookup: the upload never leaves the box. The Thing's ARQ
				// retransmission will reach a surviving instance.
				m.mu.Unlock()
				return
			}
			m.uploads++
			m.mu.Unlock()
			m.send(src, &proto.Message{
				Type:     proto.MsgDriverUpload,
				Seq:      seq,
				DeviceID: id,
				Driver:   entry.Bytecode,
			})
		})

	case proto.MsgDriverAdvert:
		// Only a discovery entry may be completed: a stale advert whose
		// sequence number was recycled for a removal must not swallow the
		// removal's pending entry.
		drivers := append([]hw.DeviceID(nil), pm.Drivers...)
		m.mu.Lock()
		m.discovered[msg.Src] = drivers
		req := m.pending[pm.Seq]
		match := req != nil && req.onDiscover != nil && req.thing == msg.Src
		if match {
			delete(m.pending, pm.Seq)
			req.expiry.Cancel()
		}
		m.mu.Unlock()
		if match {
			req.onDiscover(drivers, nil)
		}

	case proto.MsgDriverRemovalAck:
		m.mu.Lock()
		req := m.pending[pm.Seq]
		match := req != nil && req.onRemoval != nil && req.thing == msg.Src
		if match {
			delete(m.pending, pm.Seq)
			req.expiry.Cancel()
		}
		m.mu.Unlock()
		if match {
			if pm.Status == 0 {
				req.onRemoval(nil)
			} else {
				req.onRemoval(reqerr.ErrRemovalRejected)
			}
		}
	}
}
