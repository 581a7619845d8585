// Package netsim is a discrete-event simulator of the network substrate the
// µPnP prototype runs on (Section 6): IPv6 over 6LoWPAN/802.15.4, an
// RPL-style tree (DODAG) for routing, SMRF-style multicast forwarding down
// the tree, and anycast to the nearest group member. Nodes exchange UDP
// datagrams, all on µPnP's one port (6030), so a node binds one handler and
// a message carries no port. Per-packet latency models the 250 kbit/s
// 802.15.4 wire rate, 6LoWPAN fragmentation and the embedded stack's
// per-packet processing cost.
//
// One of two clocks advances time, chosen by Config. Under the default virtual
// clock (ShardedClock: one lane for an unzoned network, one lane per address
// zone otherwise) the simulator is deterministic: Send schedules deliveries,
// Run/RunUntilIdle advance time, handlers execute at delivery time on the
// driving goroutine (or its lane workers) and may send further messages.
// Under the RealtimeClock (Config.Realtime) the event loop runs on its own
// goroutine against the wall clock and handlers dispatch from a bounded
// worker pool, so many client goroutines can block on in-flight requests
// concurrently.
//
// The implementation is built to stay fast at thousands of nodes and many
// concurrent handlers, and to keep the steady-state message path free of
// heap allocations: payloads travel in pooled refcounted buffers with
// explicit ownership hand-off (see Buf and SendBuf; handlers borrow
// Message.Payload for the duration of the call; a delivery, not each of its
// receivers, holds a reference), deliveries are pooled typed events rather
// than per-datagram closures — one per multicast arrival instant rather than
// per receiver — per-hop loss draws read an inline lagged Fibonacci stream
// per lane and compare integers, the event queue is a binary heap
// with lazy deletion (Schedule and Step are O(log n), heap slots carry the
// (timestamp, sequence) key inline so sifting never touches an event,
// cancelled events are skipped on pop, compacted away when they dominate
// the queue, and recycled through a per-clock freelist guarded by
// generation counters), multicast sends consult a per-group membership
// index instead of scanning every node, unicast hop counts come from an
// O(depth) lowest-common-ancestor walk with no cache and no map,
// per-(group,src) SMRF plans hold only their targets and are maintained
// incrementally by group churn (JoinGroup/LeaveGroup splice one target in or
// out) rather than invalidated, and a send's transmission count comes from
// per-group subtree member counts in one O(depth) walk. The same index
// answers Node.GroupHasMembers, whether a multicast would reach anyone: a
// Thing asks it before each stream tick and ends a stream nobody hears. On
// a zoned network the index changes only at barriers, so the answer is the
// same at every worker count. Locks are sharded by role — topology
// (RWMutex, read-mostly after setup, taken by sends), the per-group plan
// stripes, per-lane loss/jitter streams, atomic stats counters (arrivals
// count on their own lane's padded counters), and the clock's own lock —
// and an arrival takes none of them (it loads the receiver's handler
// atomically), so concurrent handlers do not serialize on one lock.
package netsim

import (
	"cmp"
	"fmt"
	"math/bits"
	"net/netip"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// Link and stack timing model, calibrated against the Contiki 2.7 /
// ATMega128RFA1 measurements of Table 4.
const (
	// WireBitsPerSecond is the 802.15.4 PHY rate.
	WireBitsPerSecond = 250_000
	// FrameCapacity is the usable 6LoWPAN payload per 802.15.4 frame;
	// larger datagrams fragment.
	FrameCapacity = 80
	// FrameOverheadBytes covers PHY/MAC/6LoWPAN headers per frame.
	FrameOverheadBytes = 23
	// ProcPerPacket is the embedded stack's per-datagram processing cost
	// (CSMA, 6LoWPAN compression, RPL, UDP) on a 16 MHz AVR.
	ProcPerPacket = 26 * time.Millisecond
	// MulticastExtra is the additional SMRF processing and duplicate-MAC
	// cost for multicast datagrams.
	MulticastExtra = 19 * time.Millisecond
)

// PacketDelay returns the one-hop latency of a datagram of the given payload
// size.
func PacketDelay(payloadBytes int, multicast bool) time.Duration {
	frames := (payloadBytes + FrameCapacity - 1) / FrameCapacity
	if frames == 0 {
		frames = 1
	}
	wireBytes := payloadBytes + frames*FrameOverheadBytes
	wire := time.Duration(float64(wireBytes*8) / WireBitsPerSecond * float64(time.Second))
	d := ProcPerPacket + wire
	if multicast {
		d += MulticastExtra
	}
	return d
}

// Message is a UDP datagram in flight or delivered. Every µPnP message uses
// UDP port 6030 (Section 5.2), so the port is implicit.
type Message struct {
	Src netip.Addr
	Dst netip.Addr
	// Payload is BORROWED by handlers: the bytes live in a pooled buffer the
	// network recycles as soon as the handler returns (multicast receivers
	// share one buffer). Handlers that retain payload bytes must copy them.
	Payload []byte
	// Hops the datagram traversed (filled at delivery).
	Hops int
}

// Handler consumes a datagram delivered to the node it is bound to (see
// Node.Bind). Under the realtime clock handlers for independent deliveries
// run concurrently on pool workers; handlers must therefore be safe for
// concurrent use when the network runs in realtime mode. Message.Payload is
// only valid for the duration of the call.
type Handler func(Message)

// Config tunes the simulated network.
type Config struct {
	// LossRate is the per-hop probability of losing a frame (0..1).
	LossRate float64
	// ProcJitter adds relative per-delivery latency noise (e.g. 0.05 for
	// ±5%), modelling CSMA backoff and stack scheduling variance. Zero
	// keeps deliveries deterministic.
	ProcJitter float64
	// Realtime runs the network on the wall clock (see RealtimeClock):
	// the event loop gets its own goroutine and handlers dispatch from a
	// bounded worker pool. The default is the deterministic virtual clock.
	Realtime bool
	// TimeScale compresses virtual time relative to wall time in realtime
	// mode (1 or 0 = real time; 100 = 100x accelerated). Ignored by the
	// virtual clock.
	TimeScale float64
	// Workers bounds the realtime handler pool (0 = min(GOMAXPROCS, 8)) and,
	// with Zones > 1, the sharded clock's per-round parallelism: 1 forces the
	// sequential single-loop schedule (bit-identical to any parallel run),
	// 0 means GOMAXPROCS. Ignored by the single-zone virtual clock.
	Workers int
	// Zones partitions the network into that many address zones, each with
	// its own event heap, RNG stream and lock domain, run by the sharded
	// conservative-PDES clock (see ShardedClock). Node zone = the address's
	// zone field (bytes 10..11) modulo Zones. 0 or 1 runs the clock on one
	// lane, event by event; ignored in realtime mode.
	Zones int
	// Seed seeds the loss/jitter streams (0 = the fixed default 0x6030):
	// an unzoned or realtime network draws from one stream seeded with it,
	// a zoned network derives one stream per zone from it.
	Seed int64
}

// Stats counts network activity.
type Stats struct {
	UnicastSent   int
	MulticastSent int
	Transmissions int // per-hop frame transmissions, the energy-relevant count
	Delivered     int
	Lost          int
	// NoHandler counts datagrams that reached a node with no handler bound:
	// the embedded stack drops them (ICMPv6 port unreachable is not
	// generated on these motes).
	NoHandler int

	// Sharded-clock barrier telemetry; zero on networks with fewer than two
	// zone lanes. All counts are deterministic per schedule: windows derive
	// from heap state and topology only, so every worker count reports the
	// same numbers.
	ShardLanes int // zone lanes (0 = not sharded)
	// ShardRounds counts barrier rounds; ShardEvents the events executed in
	// them, each receiver of a multicast batch counting as one, so
	// ShardEvents/ShardRounds is the mean round batch size the lookahead
	// windows achieved.
	ShardRounds int64
	ShardEvents int64
	// ShardLaneRounds sums each round's active-lane count;
	// ShardLaneRounds/(ShardRounds×ShardLanes) is the mean lane occupancy.
	ShardLaneRounds int64
	// ShardCrossMerged counts cross-lane events merged at barriers (summed
	// outbox merge sizes). A multicast's copies that reach one lane at one
	// instant travel as one event, so this counts batches, not receivers.
	ShardCrossMerged int64
	// ShardCausalityViolations counts merged cross-lane events timestamped
	// before their destination lane's clock — zero when the lookahead bounds
	// are sound.
	ShardCausalityViolations int64
}

// ShardSummary renders the sharded-clock telemetry as one line, or "" when
// no barrier round ran.
func (s Stats) ShardSummary() string {
	if s.ShardLanes == 0 || s.ShardRounds == 0 {
		return ""
	}
	return fmt.Sprintf("sharded clock: %d lanes, %d rounds, %d events (%.1f events/round, %.0f%% lane occupancy), %d cross-lane merges, %d causality violations",
		s.ShardLanes, s.ShardRounds, s.ShardEvents,
		float64(s.ShardEvents)/float64(s.ShardRounds),
		100*float64(s.ShardLaneRounds)/(float64(s.ShardRounds)*float64(s.ShardLanes)),
		s.ShardCrossMerged, s.ShardCausalityViolations)
}

// counters is the internal, lock-free form of Stats' send-side counts:
// handlers on different pool workers bump counts without touching any shared
// lock. Arrivals count per lane instead (see laneCounters).
type counters struct {
	unicastSent   atomic.Int64
	multicastSent atomic.Int64
	transmissions atomic.Int64
	lost          atomic.Int64
}

// laneCounters are one clock lane's arrival counts (one set for an unzoned or
// realtime network). An arrival bumps only its receiver's lane, and the pad
// keeps two lanes' counts off one cache line, so parallel lanes never contend
// on a counter; Stats sums the lanes.
type laneCounters struct {
	delivered atomic.Int64
	noHandler atomic.Int64
	_         [48]byte
}

func (n *Network) snapshot() Stats {
	c := &n.stats
	s := Stats{
		UnicastSent:   int(c.unicastSent.Load()),
		MulticastSent: int(c.multicastSent.Load()),
		Transmissions: int(c.transmissions.Load()),
		Lost:          int(c.lost.Load()),
	}
	for i := range n.laneStats {
		l := &n.laneStats[i]
		s.Delivered += int(l.delivered.Load())
		s.NoHandler += int(l.noHandler.Load())
	}
	return s
}

// Network is the simulated internetwork.
type Network struct {
	cfg Config
	// Exactly one of sclock/rclock is set.
	sclock *ShardedClock
	rclock *RealtimeClock

	// zoneRngs are the loss/jitter streams, one per clock lane (one for an
	// unzoned or realtime network). Draws key on the SENDER's lane, so each
	// stream is consumed in the sender lane's deterministic execution order
	// and parallel and sequential rounds draw identically.
	zoneRngs []zoneRng
	// zoneMuts queues group-membership mutations issued mid-round; the
	// sharded clock's barrier applies them in (lane, emission) order so
	// membership is identical under parallel and sequential execution.
	zoneMuts []zoneMutQueue

	// topoMu guards the topology: the node table, anycast and multicast
	// membership and group sets. Read-mostly after setup, so sends share it
	// as readers; arrivals do not take it (a node's handler is atomic).
	topoMu  sync.RWMutex
	nodes   map[netip.Addr]*Node
	anycast map[netip.Addr][]*Node
	// members indexes multicast group membership so sends visit only
	// members, never the full node table.
	members map[netip.Addr]*groupMembers
	// lookahead is the sharded clock's per-lane-pair lookahead matrix feeding
	// its barrier windows; nil on single-zone/realtime networks. Maintained
	// under topoMu (AddNode only; topology never shrinks).
	lookahead *Lookahead

	// Plan cache. Parent links are immutable after AddNode, which flushes
	// the plans. Unicast hop counts are not cached: a lowest-common-ancestor
	// walk (meet) costs O(depth) and no lock. plansMu guards only the
	// group→groupPlans table; each group carries its own lock, so realtime
	// plan warmup for different groups never serializes on one mutex.
	// Group churn (JoinGroup/LeaveGroup) does not invalidate plans: the
	// member is spliced into or out of every cached plan of the group as
	// one target (an O(depth) hop count and an index update per cached
	// source, not O(members × depth) rebuilds). Lock order: topoMu →
	// plansMu → groupPlans.mu.
	plansMu sync.RWMutex
	plans   map[netip.Addr]*groupPlans

	stats     counters
	laneStats []laneCounters
	// cut is Config.LossRate in the loss streams' integer domain.
	cut uint64
}

// groupPlans is one group's stripe of the plan cache: the per-source SMRF
// dissemination plans plus the lock that guards them.
type groupPlans struct {
	mu    sync.RWMutex
	bySrc map[*Node]*mcastPlan
}

// zoneRng is one lane's loss/jitter stream, held inline (see lossStream).
// The mutex matters for concurrent senders (realtime handlers, external
// goroutines); during sharded rounds each stream is drawn solely by its own
// lane's worker. The tail pad keeps the end of one lane's ring off the cache
// line of the next lane's mutex.
type zoneRng struct {
	mu sync.Mutex
	r  lossStream
	_  [64]byte
}

// zoneMutQueue buffers one zone's deferred membership mutations.
type zoneMutQueue struct {
	mu   sync.Mutex
	muts []memberMut
}

// groupMembers is one multicast group's membership: the member set plans
// are built from, and the subtree member counts a send's transmission count
// is derived from. Guarded by topoMu.
type groupMembers struct {
	set map[*Node]struct{}
	// sub[y.idx] is the number of members in node y's subtree (y
	// included), stored only while it is positive, so len(sub) is the
	// number of nodes whose subtree holds a member.
	sub map[int32]int32
}

// count adds delta to the subtree count of nd and of every ancestor: one
// O(depth) walk up nd's chain.
func (gm *groupMembers) count(nd *Node, delta int32) {
	for y := nd; y != nil; y = y.parent {
		if c := gm.sub[y.idx] + delta; c == 0 {
			delete(gm.sub, y.idx)
		} else {
			gm.sub[y.idx] = c
		}
	}
}

// transmissions returns the SMRF transmission count of one send from src
// to the group: the size of the union of the tree routes from src to every
// other member. For a fixed source every route edge is crossed in one
// direction only, so each edge is named by its child endpoint y:
//   - y off src's chain: the edge above y carries the datagram down iff y's
//     subtree holds a member (a backbone edge to another root y, likewise);
//   - y on src's chain, not a root: the edge above y carries it up iff some
//     member lies outside y's subtree.
//
// So the count is the number of occupied nodes, minus those on src's chain,
// plus the non-root chain nodes whose subtree misses a member: one
// O(depth(src)) walk. It is exact when the group has a member other than
// src; sendMulticast returns before it otherwise.
func (gm *groupMembers) transmissions(src *Node) int {
	n, size := len(gm.sub), int32(len(gm.set))
	for y := src; y != nil; y = y.parent {
		c := gm.sub[y.idx]
		if c > 0 {
			n--
		}
		if y.parent != nil && c < size {
			n++
		}
	}
	return n
}

// memberMut is one deferred JoinGroup/LeaveGroup.
type memberMut struct {
	nd   *Node
	g    netip.Addr
	join bool
}

// New creates an empty network running on the clock Config selects: the
// deterministic virtual clock (a ShardedClock with one lane per zone) by
// default, the wall-clock runtime when cfg.Realtime is set.
func New(cfg Config) *Network {
	n := &Network{
		cfg:     cfg,
		nodes:   map[netip.Addr]*Node{},
		anycast: map[netip.Addr][]*Node{},
		members: map[netip.Addr]*groupMembers{},
		plans:   map[netip.Addr]*groupPlans{},
	}
	seed := cfg.Seed
	if seed == 0 {
		seed = 0x6030
	}
	n.cut = lossCut(cfg.LossRate)
	if cfg.Realtime {
		n.rclock = NewRealtimeClock(RealtimeConfig{TimeScale: cfg.TimeScale, Workers: cfg.Workers})
	} else {
		n.sclock = NewShardedClock(cfg.Zones, cfg.Workers, ShardQuantum(cfg.ProcJitter))
	}
	if !n.zoned() {
		n.laneStats = make([]laneCounters, 1)
		n.zoneRngs = make([]zoneRng, 1)
		n.zoneRngs[0].r.seed(seed)
		return n
	}
	n.sclock.postRound = n.flushDeferredMembership
	n.lookahead = n.sclock.lookahead
	n.laneStats = make([]laneCounters, cfg.Zones)
	n.zoneRngs = make([]zoneRng, cfg.Zones)
	for z := range n.zoneRngs {
		n.zoneRngs[z].r.seed(zoneSeed(seed, z))
	}
	n.zoneMuts = make([]zoneMutQueue, cfg.Zones)
	return n
}

// zoneSeed derives zone z's stream seed from the network seed with a
// golden-ratio mix, so adjacent zones do not correlate.
func zoneSeed(seed int64, z int) int64 {
	return seed ^ int64(uint64(z+1)*0x9e3779b97f4a7c15)
}

// zoned reports whether the network runs on two or more clock lanes.
func (n *Network) zoned() bool { return n.sclock != nil && n.sclock.Lanes() > 1 }

// Realtime reports whether the network runs on the wall clock.
func (n *Network) Realtime() bool { return n.rclock != nil }

// TimeScale returns the virtual-per-wall factor (1 on the virtual clock,
// whose virtual time is unrelated to wall time).
func (n *Network) TimeScale() float64 {
	if n.rclock != nil {
		return n.rclock.TimeScale()
	}
	return 1
}

// Close stops the clock: in realtime mode it terminates the event loop and
// the worker pool (handlers already running finish first) and discards
// queued events; on the virtual clock it retires the round workers of a
// zoned network. Close is idempotent.
// Do not call Close from inside a handler.
func (n *Network) Close() {
	if n.sclock != nil {
		n.sclock.Stop()
		return
	}
	n.rclock.Stop()
}

// Now returns the virtual time.
func (n *Network) Now() time.Duration {
	if n.sclock != nil {
		return n.sclock.Now()
	}
	return n.rclock.Now()
}

// Stats returns a snapshot of the counters, with the sharded clock's
// telemetry when the network runs two or more zone lanes.
func (n *Network) Stats() Stats {
	s := n.snapshot()
	if n.zoned() {
		c := n.sclock
		s.ShardLanes = c.Lanes()
		s.ShardRounds = c.rounds.Load()
		s.ShardEvents = c.events.Load()
		s.ShardLaneRounds = c.laneRounds.Load()
		s.ShardCrossMerged = c.crossMerged.Load()
		s.ShardCausalityViolations = c.causalViol.Load()
	}
	return s
}

// Node is one IPv6 host: a µPnP Thing, client or manager, with at most one
// bound datagram handler.
type Node struct {
	net *Network
	// addr, parent, depth, idx and lane are immutable after AddNode.
	addr   netip.Addr
	parent *Node
	depth  int
	// idx is the node's dense index, its position in AddNode order. It
	// keys the pointer-free group subtree counts and plan indexes.
	idx int32
	// lane is the node's zone lane on the sharded clock (0 otherwise):
	// the address's zone field modulo the zone count. Deliveries to the node
	// and timers the node arms execute on this lane.
	lane int32
	// handler is the bound datagram handler (nil = none). It is atomic so
	// an arrival reads it without any lock, and a realtime Unbind cannot
	// race pool workers dispatching to the node.
	handler atomic.Pointer[Handler]
	groups  map[netip.Addr]bool
	// minDown[j] is the minimum depth offset of any lane-j node in this
	// node's subtree (-1 = none), the per-node ingredient of the incremental
	// lookahead matrix (see Lookahead). nil unless the matrix is maintained;
	// guarded by the Lookahead mutex.
	minDown []int32
}

// AddNode registers a host. parent nil makes it a DODAG root (or a node on
// the backbone); otherwise the node hangs off parent in the tree.
func (n *Network) AddNode(addr netip.Addr, parent *Node) (*Node, error) {
	n.topoMu.Lock()
	defer n.topoMu.Unlock()
	if _, dup := n.nodes[addr]; dup {
		return nil, fmt.Errorf("netsim: address %v already in use", addr)
	}
	node := &Node{net: n, addr: addr, parent: parent, idx: int32(len(n.nodes)), groups: map[netip.Addr]bool{}}
	if parent != nil {
		node.depth = parent.depth + 1
	}
	if n.sclock != nil {
		node.lane = int32(int(ZoneFromAddr(addr)) % n.sclock.Lanes())
	}
	n.nodes[addr] = node
	if n.lookahead != nil {
		n.lookahead.addNode(node)
	}
	n.invalidateRoutes()
	return node, nil
}

// invalidateRoutes drops every cached plan (topoMu held, so no plan builder
// can interleave). Topology only grows, but conservatively flushing on
// AddNode keeps the cache trivially correct and costs nothing in steady
// state (nodes are added once, messages flow forever after). Group churn
// does NOT come through here — it splices plans incrementally.
func (n *Network) invalidateRoutes() {
	n.plansMu.Lock()
	clear(n.plans)
	n.plansMu.Unlock()
}

// Addr returns the node's unicast address.
func (nd *Node) Addr() netip.Addr { return nd.addr }

// Depth returns the node's depth in the DODAG (root = 0).
func (nd *Node) Depth() int { return nd.depth }

// Zone returns the node's address zone (the 16-bit field at bytes 10..11).
func (nd *Node) Zone() uint16 { return ZoneFromAddr(nd.addr) }

// Now returns the node's view of virtual time: on the sharded clock this is
// the node's lane-local time (deterministic inside a round — the global clock
// only advances at barriers), elsewhere the network clock. Node-side code
// (Things, clients, the manager) should timestamp and schedule through these
// node-affine methods so sharded runs stay bit-identical.
func (nd *Node) Now() time.Duration {
	if sc := nd.net.sclock; sc != nil {
		return sc.laneNow(nd.lane)
	}
	return nd.net.rclock.Now()
}

// Schedule runs fn at the node's Now()+delay, on the node's zone lane.
func (nd *Node) Schedule(delay time.Duration, fn func()) {
	if sc := nd.net.sclock; sc != nil {
		sc.scheduleLane(nd.lane, delay, fn)
		return
	}
	nd.net.rclock.Schedule(delay, fn)
}

// ScheduleExpiry queues a typed expiry event on the node's zone lane (see
// Network.ScheduleExpiry for semantics).
func (nd *Node) ScheduleExpiry(delay time.Duration, e Expirer, seq uint64, tok any) ExpiryRef {
	n := nd.net
	if n.sclock != nil {
		return n.sclock.scheduleExpiryLane(nd.lane, delay, e, seq, tok)
	}
	return n.rclock.scheduleExpiry(delay, e, seq, tok)
}

// Bind registers the node's datagram handler, replacing any earlier one.
// Arrivals from then on dispatch to h.
func (nd *Node) Bind(h Handler) { nd.handler.Store(&h) }

// Unbind removes the node's datagram handler; subsequent arrivals drop as
// NoHandler. With LeaveAnycast this models a process crash: the node stays
// in the routing tree (its radio keeps relaying), but nothing listens any
// more.
func (nd *Node) Unbind() { nd.handler.Store(nil) }

// JoinGroup subscribes the node to a multicast group. Cached SMRF plans for
// the group are maintained incrementally: the new member is spliced into
// every cached per-source plan as one target (O(depth) each), and its
// chain's subtree counts rise by one, instead of invalidating and
// rebuilding the plans from all members.
// Membership changes issued from inside a sharded round (a handler joining
// during a driver install, say) are deferred to the round's barrier and
// applied there in (zone lane, emission) order: mid-window the change would
// race concurrently executing lanes' plan lookups, making the delivered set
// depend on worker interleaving. The deferral makes the semantics uniform —
// on a zoned network, membership changes take effect at the next window
// boundary in every execution mode. An unzoned network has no rounds, so
// its changes apply immediately.
func (nd *Node) JoinGroup(g netip.Addr) {
	n := nd.net
	if n.deferMembership(nd, g, true) {
		return
	}
	n.topoMu.Lock()
	defer n.topoMu.Unlock()
	n.joinLocked(nd, g)
}

func (n *Network) joinLocked(nd *Node, g netip.Addr) {
	if nd.groups[g] {
		return
	}
	nd.groups[g] = true
	gm := n.members[g]
	if gm == nil {
		gm = &groupMembers{set: map[*Node]struct{}{}, sub: map[int32]int32{}}
		n.members[g] = gm
	}
	gm.set[nd] = struct{}{}
	gm.count(nd, 1)
	n.spliceMember(g, nd, true)
}

// LeaveGroup unsubscribes the node, splicing it out of every cached plan of
// the group.
func (nd *Node) LeaveGroup(g netip.Addr) {
	n := nd.net
	if n.deferMembership(nd, g, false) {
		return
	}
	n.topoMu.Lock()
	defer n.topoMu.Unlock()
	n.leaveLocked(nd, g)
}

func (n *Network) leaveLocked(nd *Node, g netip.Addr) {
	if !nd.groups[g] {
		return
	}
	delete(nd.groups, g)
	gm := n.members[g]
	delete(gm.set, nd)
	gm.count(nd, -1)
	if len(gm.set) == 0 {
		delete(n.members, g)
	}
	n.spliceMember(g, nd, false)
}

// deferMembership queues a membership change when issued mid-round on the
// sharded clock, reporting whether it was deferred. Outside rounds (setup
// code, the driving goroutine between windows) changes apply immediately.
func (n *Network) deferMembership(nd *Node, g netip.Addr, join bool) bool {
	sc := n.sclock
	if sc == nil || !sc.inRound.Load() {
		return false
	}
	q := &n.zoneMuts[nd.lane]
	q.mu.Lock()
	q.muts = append(q.muts, memberMut{nd: nd, g: g, join: join})
	q.mu.Unlock()
	return true
}

// flushDeferredMembership applies the queued membership mutations at a
// sharded barrier, in (zone lane, emission) order, under the topology lock.
// Lane workers are parked, so this is the serial phase of the round.
func (n *Network) flushDeferredMembership() {
	locked := false
	for z := range n.zoneMuts {
		q := &n.zoneMuts[z]
		q.mu.Lock()
		muts := q.muts
		q.muts = nil
		q.mu.Unlock()
		if len(muts) == 0 {
			continue
		}
		if !locked {
			n.topoMu.Lock()
			defer n.topoMu.Unlock()
			locked = true
		}
		for _, m := range muts {
			if m.join {
				n.joinLocked(m.nd, m.g)
			} else {
				n.leaveLocked(m.nd, m.g)
			}
		}
	}
}

// spliceMember applies one membership change to every cached plan of the
// group. Caller holds topoMu (write), which excludes all senders and plan
// builders; the group's own lock is still taken to order the write against
// the striped readers' memory model.
func (n *Network) spliceMember(g netip.Addr, nd *Node, add bool) {
	n.plansMu.RLock()
	gp := n.plans[g]
	n.plansMu.RUnlock()
	if gp == nil {
		return
	}
	gp.mu.Lock()
	defer gp.mu.Unlock()
	for src, plan := range gp.bySrc {
		if src == nd {
			continue // a plan never targets its own source
		}
		if add {
			plan.addMember(src, nd)
		} else {
			plan.removeMember(nd)
		}
	}
}

// InGroup reports group membership.
func (nd *Node) InGroup(g netip.Addr) bool {
	nd.net.topoMu.RLock()
	defer nd.net.topoMu.RUnlock()
	return nd.groups[g]
}

// GroupHasMembers reports whether a node other than nd is a member of g:
// whether a multicast nd sends to g would reach anyone. It reads the
// membership index SMRF's plans are built from, so on a zoned network it
// sees a join or leave from the barrier that applied it (see JoinGroup),
// and gives the same answer at every worker count.
func (nd *Node) GroupHasMembers(g netip.Addr) bool {
	n := nd.net
	n.topoMu.RLock()
	defer n.topoMu.RUnlock()
	gm := n.members[g]
	return gm != nil && (len(gm.set) > 1 || !nd.groups[g])
}

// JoinAnycast registers the node as a member of an anycast address
// (Section 5: the µPnP manager uses anycast for redundancy).
func (n *Network) JoinAnycast(a netip.Addr, nd *Node) {
	n.topoMu.Lock()
	defer n.topoMu.Unlock()
	n.anycast[a] = append(n.anycast[a], nd)
}

// LeaveAnycast withdraws the node from an anycast address: subsequent
// datagrams to the address route to the nearest remaining member (the
// Section 5 failover — a crashed manager stops being a candidate while the
// survivors keep serving). Member order among the survivors is preserved, so
// nearest-member tie-breaks stay deterministic. Leaving an address the node
// never joined is a no-op.
func (n *Network) LeaveAnycast(a netip.Addr, nd *Node) {
	n.topoMu.Lock()
	defer n.topoMu.Unlock()
	members := n.anycast[a]
	for i, m := range members {
		if m == nd {
			n.anycast[a] = append(members[:i:i], members[i+1:]...)
			if len(n.anycast[a]) == 0 {
				delete(n.anycast, a)
			}
			return
		}
	}
}

// meet returns the lowest common ancestor of a and b in the DODAG, or nil
// when they hang off disjoint trees (different backbone roots). It lifts the
// deeper node to the other's depth, then steps both up together. parent and
// depth are immutable after AddNode, so the walk needs no lock.
func meet(a, b *Node) *Node {
	for a.depth > b.depth {
		a = a.parent
	}
	for b.depth > a.depth {
		b = b.parent
	}
	for a != b {
		a, b = a.parent, b.parent
	}
	return a
}

// treeDistance returns the hop count between two nodes through the DODAG.
func treeDistance(a, b *Node) int {
	if m := meet(a, b); m != nil {
		return a.depth + b.depth - 2*m.depth
	}
	// Disjoint trees: treat as one hop over the backbone plus both depths.
	return a.depth + b.depth + 1
}

// mcastPlan is a cached SMRF dissemination for one (group, source) pair: the
// member targets with their hop counts and an index for O(1) membership
// splices. It holds no route edges: a send's transmission count comes from
// the group's subtree member counts (groupMembers.transmissions).
type mcastPlan struct {
	targets []mcastTarget
	index   map[int32]int32 // member's Node.idx -> position in targets
	// slots lists the plan's arrival classes, each a distinct (lane, hop
	// count) of some target. Without jitter every receiver of one class
	// arrives on the same lane at the same instant, so a send queues one
	// delivery per class, sized by the class's target count. A class
	// outlives the targets that made it; there are at most lanes × tree
	// height of them.
	slots []arrivalClass
}

type mcastTarget struct {
	node *Node
	hops int32
	slot int32 // index of the target's arrival class in slots
}

type arrivalClass struct {
	lane, hops int32
	size       int32 // targets in the class
}

// slotOf counts a target into its (lane, hops) arrival class, adding the
// class when new, and returns the class's index. A linear scan: it runs
// only when a target enters the plan, and classes are few.
func (p *mcastPlan) slotOf(lane int32, hops int) int32 {
	for i := range p.slots {
		if c := &p.slots[i]; c.lane == lane && c.hops == int32(hops) {
			c.size++
			return int32(i)
		}
	}
	p.slots = append(p.slots, arrivalClass{lane: lane, hops: int32(hops), size: 1})
	return int32(len(p.slots) - 1)
}

// addMember splices one member into the plan as a new last target: an
// O(depth) hop count. The caller holds topoMu (write) and the group's plan
// lock.
func (p *mcastPlan) addMember(src, member *Node) {
	if _, dup := p.index[member.idx]; dup {
		return
	}
	hops := treeDistance(src, member)
	p.index[member.idx] = int32(len(p.targets))
	p.targets = append(p.targets, mcastTarget{node: member, hops: int32(hops), slot: p.slotOf(member.lane, hops)})
}

// removeMember splices one member out of the plan with a swap-remove of
// its target entry.
func (p *mcastPlan) removeMember(member *Node) {
	i, ok := p.index[member.idx]
	if !ok {
		return
	}
	p.slots[p.targets[i].slot].size--
	last := int32(len(p.targets) - 1)
	p.targets[i] = p.targets[last]
	p.targets[last] = mcastTarget{}
	p.targets = p.targets[:last]
	if i < last {
		p.index[p.targets[i].node.idx] = i
	}
	delete(p.index, member.idx)
}

// multicastPlan returns the cached (group, src) dissemination plan, building
// it from the membership index on first use. The caller holds topoMu.RLock
// (so membership cannot change underneath); lookups and builds take only the
// group's own stripe lock, so concurrent warmup of different groups does not
// serialize. Target order is deterministic — (hops, address) at build time,
// append/swap-remove order across splices — which keeps virtual-clock runs
// reproducible.
func (n *Network) multicastPlan(src *Node, group netip.Addr) *mcastPlan {
	n.plansMu.RLock()
	gp := n.plans[group]
	n.plansMu.RUnlock()
	if gp == nil {
		n.plansMu.Lock()
		gp = n.plans[group]
		if gp == nil {
			gp = &groupPlans{bySrc: map[*Node]*mcastPlan{}}
			n.plans[group] = gp
		}
		n.plansMu.Unlock()
	}
	gp.mu.RLock()
	plan := gp.bySrc[src]
	gp.mu.RUnlock()
	if plan != nil {
		return plan
	}
	gp.mu.Lock()
	defer gp.mu.Unlock()
	if plan := gp.bySrc[src]; plan != nil {
		return plan
	}
	plan = n.buildPlan(src, group)
	gp.bySrc[src] = plan
	return plan
}

// buildPlan computes a full (group, src) plan from the membership index.
// Caller holds topoMu (read or write) and the group's plan write lock.
func (n *Network) buildPlan(src *Node, group netip.Addr) *mcastPlan {
	plan := &mcastPlan{index: map[int32]int32{}}
	if gm := n.members[group]; gm != nil {
		for member := range gm.set {
			if member != src {
				plan.targets = append(plan.targets, mcastTarget{node: member, hops: int32(treeDistance(src, member))})
			}
		}
	}
	slices.SortFunc(plan.targets, func(a, b mcastTarget) int {
		if c := cmp.Compare(a.hops, b.hops); c != 0 {
			return c
		}
		return a.node.addr.Compare(b.node.addr)
	})
	for i := range plan.targets {
		t := &plan.targets[i]
		plan.index[t.node.idx] = int32(i)
		t.slot = plan.slotOf(t.node.lane, int(t.hops))
	}
	return plan
}

// Send transmits a UDP datagram. Unicast goes through the tree; multicast
// (ff00::/8) is SMRF-disseminated to all group members; anycast addresses
// reach the nearest registered member. Send is safe for concurrent use;
// concurrent senders share the topology as readers.
//
// The payload is copied into a pooled buffer (the caller keeps ownership of
// its slice); hot paths that can hand ownership over should encode straight
// into an AcquireBuf buffer and use SendBuf instead.
func (nd *Node) Send(dst netip.Addr, payload []byte) {
	pb := AcquireBuf()
	pb.B = append(pb.B, payload...)
	nd.SendBuf(dst, pb)
}

// SendBuf transmits a pooled payload buffer, taking ownership: the network
// releases the buffer after the final delivery handler returned (or on
// loss), so the caller must not touch pb afterwards. See Buf for the full
// ownership discipline.
func (nd *Node) SendBuf(dst netip.Addr, pb *Buf) {
	n := nd.net
	n.topoMu.RLock()
	defer n.topoMu.RUnlock()
	msg := Message{Src: nd.addr, Dst: dst, Payload: pb.B}
	switch {
	case dst.IsMulticast():
		n.stats.multicastSent.Add(1)
		n.sendMulticast(nd, msg, pb)
	default:
		n.stats.unicastSent.Add(1)
		if members := n.anycast[dst]; len(members) > 0 {
			best := members[0]
			bestD := treeDistance(nd, best)
			for _, m := range members[1:] {
				if d := treeDistance(nd, m); d < bestD {
					best, bestD = m, d
				}
			}
			n.deliver(nd, best, msg, pb, bestD)
			return
		}
		target, ok := n.nodes[dst]
		if !ok {
			n.stats.lost.Add(1)
			pb.Release()
			return
		}
		n.deliver(nd, target, msg, pb, treeDistance(nd, target))
	}
}

// sendMulticast implements SMRF-style dissemination: the datagram travels
// the tree from the source; every edge on the union of paths to the members
// is one transmission (duplicate suppression, the key SMRF property versus
// naive flooding), counted from the group's subtree member counts in one
// walk up the source's chain. Caller holds topoMu.RLock.
//
// The fan-out shares one payload buffer. Each delivery the send queues — a
// batch, or one jittered copy — takes one reference, which its last receiver
// gives back (see delivery.run); a lost copy takes none. The sender's own
// reference is dropped once everything is queued, so the buffer recycles
// right away when every copy is lost.
//
// Loss (and jitter) is drawn per receiver in plan order, as for separate
// unicasts, from the sender lane's stream. Without jitter the survivors of
// one arrival class — same lane, same hop count, so the same arrival
// instant — share one delivery that lists them in plan order; under jitter
// every survivor gets its own. The batch takes the queue position its first
// receiver's event would have had, and no other event could have been
// ordered between the receivers of one instant (nothing else pushes to a
// lane between this send's pushes), so the receivers run exactly where their
// separate events would have run.
func (n *Network) sendMulticast(src *Node, msg Message, pb *Buf) {
	plan := n.multicastPlan(src, msg.Dst)
	if len(plan.targets) == 0 {
		pb.Release()
		return
	}
	hopDelay := PacketDelay(len(msg.Payload), true)
	jitter := n.cfg.ProcJitter > 0
	var stack [64]*delivery
	batches := stack[:]
	if len(plan.slots) > len(stack) {
		batches = make([]*delivery, len(plan.slots))
	}
	// One hold of the sender's stream covers the send's draws, in plan
	// order; a jittered copy is queued under it (lock order: stream, then
	// clock).
	zr := &n.zoneRngs[src.lane]
	var lost, queued int32
	zr.mu.Lock()
	for _, t := range plan.targets {
		hops := max(int(t.hops), 1)
		delay, ok := n.draw(&zr.r, hops, hopDelay)
		switch d := batches[t.slot]; {
		case !ok:
			lost++
		case jitter:
			pb.retain(1)
			n.scheduleDelivery(src, delay, newDelivery(1, n, msg, hops, pb, t.node))
		case d == nil:
			batches[t.slot] = newDelivery(int(plan.slots[t.slot].size), n, msg, hops, pb, t.node)
			queued++
		default:
			d.dsts = append(d.dsts, t.node)
		}
	}
	zr.mu.Unlock()
	if lost > 0 {
		n.stats.lost.Add(int64(lost))
	}
	if queued > 0 {
		pb.retain(queued)
		for _, d := range batches[:len(plan.slots)] {
			if d != nil {
				n.scheduleDelivery(src, time.Duration(d.msg.Hops)*hopDelay, d)
			}
		}
	}
	n.stats.transmissions.Add(int64(n.members[msg.Dst].transmissions(src)))
	pb.Release()
}

// delivery is one scheduled arrival instant of a datagram: the receivers
// that get it on the same lane at the same virtual time, in plan order — one
// for a unicast, and one for a multicast copy under jitter. Deliveries are
// pooled with their receiver slices, so steady-state deliveries allocate
// neither a closure nor an event.
type delivery struct {
	net *Network
	msg Message
	// buf backs msg.Payload; the delivery holds one reference to it for all
	// its receivers together, released after the last one (see run).
	buf  *Buf
	dsts []*Node
	// next counts the receivers the virtual clock has already handed out;
	// the delivery stays queued until the last one (see
	// shardLane.runWindow).
	next int
}

// deliveryPools[k] holds recycled deliveries whose receiver slices have
// capacity 1<<k. A batch is taken from the class that fits its plan slot's
// target count, so it never grows a recycled slice.
var deliveryPools [32]sync.Pool

// newDelivery takes a pooled delivery for up to size receivers, of msg over
// hops, with dst as its first receiver. The delivery consumes one payload
// reference, whoever receives it.
func newDelivery(size int, n *Network, msg Message, hops int, pb *Buf, dst *Node) *delivery {
	k := bits.Len(uint(size - 1))
	d, _ := deliveryPools[k].Get().(*delivery)
	if d == nil {
		d = &delivery{dsts: make([]*Node, 0, 1<<k)}
	}
	d.net, d.msg, d.buf = n, msg, pb
	d.msg.Hops = hops
	d.dsts = append(d.dsts, dst)
	return d
}

// run executes the arrival at every receiver the delivery has left (the
// clock hands a multicast batch's other receivers out one at a time, see
// shardLane.runWindow), releases the delivery's payload reference and
// recycles it. Only the firing that pops the delivery calls run, so the
// reference drops once, after the batch's last receiver.
func (d *delivery) run() {
	for _, dst := range d.dsts[d.next:] {
		d.net.arrive(dst, &d.msg)
	}
	d.buf.Release()
	clear(d.dsts)
	*d = delivery{dsts: d.dsts[:0]}
	deliveryPools[bits.Len(uint(cap(d.dsts)-1))].Put(d)
}

// arrive executes one receiver's arrival on the clock's firing goroutine:
// dispatch to the handler bound at that moment and count it on the
// receiver's lane. It takes no lock and leaves the payload alone: the
// delivery holds the reference for all its receivers (handlers only borrow
// Message.Payload).
func (n *Network) arrive(dst *Node, msg *Message) {
	c := &n.laneStats[dst.lane]
	if h := dst.handler.Load(); h == nil {
		c.noHandler.Add(1)
	} else {
		(*h)(*msg)
		c.delivered.Add(1)
	}
}

// deliver schedules a unicast delivery after the per-hop latency, applying
// per-hop loss. Caller holds topoMu.RLock and hands over its payload
// reference, which the delivery consumes (dropped on loss, or after the
// handler).
func (n *Network) deliver(src, dst *Node, msg Message, pb *Buf, hops int) {
	hops = max(hops, 1) // loopback or same-node corner: still one stack traversal
	n.stats.transmissions.Add(int64(hops))
	zr := &n.zoneRngs[src.lane]
	zr.mu.Lock()
	delay, ok := n.draw(&zr.r, hops, PacketDelay(len(msg.Payload), false))
	zr.mu.Unlock()
	if !ok {
		n.stats.lost.Add(1)
		pb.Release()
		return
	}
	n.scheduleDelivery(src, delay, newDelivery(1, n, msg, hops, pb, dst))
}

// draw samples one copy's fate from rng (its lane's stream, lock held): a
// loss draw per hop until one hits, then, for a survivor, the jitter draw.
// It returns the arrival delay and whether the copy survived.
func (n *Network) draw(rng *lossStream, hops int, hopDelay time.Duration) (time.Duration, bool) {
	if n.cfg.LossRate > 0 && !rng.survive(hops, n.cut) {
		return 0, false
	}
	delay := time.Duration(hops) * hopDelay
	if n.cfg.ProcJitter > 0 {
		dev := (rng.Float64()*2 - 1) * n.cfg.ProcJitter
		delay = time.Duration(float64(delay) * (1 + dev))
	}
	return delay, true
}

// scheduleDelivery routes a pooled delivery to the network's clock.
// On the sharded clock the event lands on the DESTINATION's lane, timed from
// the SOURCE's lane-local clock.
func (n *Network) scheduleDelivery(src *Node, delay time.Duration, d *delivery) {
	if n.sclock != nil {
		n.sclock.scheduleDelivery(src.lane, d.dsts[0].lane, delay, d)
		return
	}
	n.rclock.scheduleDelivery(delay, d)
}

// Schedule runs fn at Now()+delay (virtual).
func (n *Network) Schedule(delay time.Duration, fn func()) {
	if n.sclock != nil {
		n.sclock.Schedule(delay, fn)
		return
	}
	n.rclock.Schedule(delay, fn)
}

// ScheduleExpiry queues a typed expiry event at Now()+delay: the clock calls
// e.ExpireEvent(seq, tok) instead of a closure, so request deadlines on the
// hot path cost no allocation to arm and none to cancel. A cancelled event is
// dropped entirely: it neither fires nor advances the clock to its timestamp,
// so completed requests leave no dead time behind. Cancelling after the event
// fired (or cancelling twice) is a no-op. On a stopped realtime clock the
// returned ref is inert and the event never fires.
func (n *Network) ScheduleExpiry(delay time.Duration, e Expirer, seq uint64, tok any) ExpiryRef {
	if n.sclock != nil {
		return n.sclock.scheduleExpiryLane(0, delay, e, seq, tok)
	}
	return n.rclock.scheduleExpiry(delay, e, seq, tok)
}

// queueCap exposes the event queue's backing capacity; leak tests assert it
// stays bounded across long schedule/cancel/step runs.
func (n *Network) queueCap() int {
	if n.sclock != nil {
		return n.sclock.queueCap()
	}
	return n.rclock.queueCap()
}

// Step executes the next scheduled event, advancing the virtual clock; on a
// zoned network one Step is one barrier round (up to a lookahead window of
// virtual time). It reports whether an event ran. On the realtime clock
// there is nothing for the caller to drive — the loop goroutine fires
// events — so Step always reports false.
func (n *Network) Step() bool {
	if n.sclock != nil {
		return n.sclock.Step()
	}
	return false
}

// StepUntil advances the network by one bounded slice of work: on a zoned
// network it executes at most one barrier round whose windows are clamped to
// the deadline (inclusive), on an unzoned one it runs events up to the
// deadline, and on the realtime clock it is a no-op (the loop goroutine
// advances on its own). It reports whether any event ran; when no pending
// event is due by the deadline the clock simply advances to it. Cooperative
// drivers (the SDK's conducted strands) use the round granularity to re-check
// wake conditions between rounds without overshooting their next deadline.
func (n *Network) StepUntil(deadline time.Duration) bool {
	if n.sclock != nil {
		return n.sclock.StepUntil(deadline)
	}
	return false
}

// RunUntilIdle drives the network until no events remain. On the virtual
// clock it steps inline (bounded by maxSteps; 0 means the 1e6 default) and
// returns the number of steps. On the realtime clock it blocks until the
// runtime is idle — queue drained, no handler queued or running — and
// returns 0; self-rescheduling activities (active streams) never go idle,
// so bound those waits with RunUntil instead.
func (n *Network) RunUntilIdle(maxSteps int) int {
	if n.sclock != nil {
		return n.sclock.RunUntilIdle(maxSteps)
	}
	n.rclock.WaitIdle()
	return 0
}

// RunUntilQuiesced drives the network until it is idle or until the virtual
// deadline passes, whichever comes first, and reports whether it went idle —
// the bounded drain RunUntilIdle cannot provide while self-rescheduling
// activities (active streams) keep the queue populated. On the virtual clock
// the caller's goroutine executes the due events inline; on the realtime
// clock the call blocks until the runtime drains or the deadline passes on
// the (scaled) wall clock.
func (n *Network) RunUntilQuiesced(deadline time.Duration) bool {
	if n.sclock != nil {
		return n.sclock.RunUntilQuiesced(deadline)
	}
	return n.rclock.WaitIdleUntil(deadline)
}

// RunUntil processes events up to (and including) the given virtual
// deadline, then advances the clock to the deadline. On the virtual clock
// the caller's goroutine executes the events inline; on the realtime clock
// the call simply blocks (sleeping on the wall clock, compressed by the
// time scale) until the deadline passes on the loop goroutine.
func (n *Network) RunUntil(deadline time.Duration) int {
	if n.sclock != nil {
		return n.sclock.RunUntil(deadline)
	}
	for {
		now := n.rclock.Now()
		if now >= deadline {
			return 0
		}
		wall := time.Duration(float64(deadline-now) / n.rclock.TimeScale())
		if wall < time.Millisecond {
			wall = time.Millisecond
		}
		time.Sleep(wall)
	}
}
