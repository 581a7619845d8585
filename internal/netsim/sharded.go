package netsim

import (
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// ShardedClock is the zone-parallel virtual clock: a conservative
// parallel discrete-event simulator (PDES) over the network's address zones.
// Every zone (lane) owns its own event heap, lane-local virtual time and lock
// domain; lanes advance together through barrier-synchronized windows, inside
// which each lane's events execute independently — in parallel on a
// persistent worker pool, or sequentially in lane order when Workers is 1.
//
// The lookahead argument: every cross-zone interaction is a packet delivery,
// and one hop costs at least PacketDelay of the smallest datagram, which even
// after the worst downward jitter excursion exceeds
// Quantum = ProcPerPacket × (1 − jitter). A delivery crossing from lane j to
// lane i travels at least the minimum tree distance between the two zones'
// nodes, so it lands at least L(j→i) = minHops(j, i) × Quantum after the
// emitting event — the per-lane-pair lookahead matrix (see Lookahead). At
// each barrier the clock derives per-lane window bounds from the matrix and
// the post-merge heap minima:
//
//	m'_j = min(m_j, min over k of (m'_k + L(k→j)))   (min-plus closure)
//	w_i  = min over j≠i of (m'_j + L(j→i))
//
// The closure step matters: the raw heap minimum m_j is not the earliest
// time lane j can act — an event on a third lane k can seed lane j earlier
// work first, and the pairwise minima are not a metric (no triangle
// inequality over "nearest node" distances), so m'_j is computed as a
// shortest path over lanes. Any event lane j executes happens at or after
// m'_j, hence anything it emits into lane i arrives at or after w_i: events
// below w_i in lane i's post-merge heap are complete, and the window is safe.
// Zones far apart in the routing tree thus run many quanta ahead of each
// other instead of advancing in lock-step one-hop windows; a lane pair the
// matrix has no node pair for yet falls back to the one-hop Quantum.
//
// Determinism: lane execution order is fixed by each lane's own (timestamp,
// sequence) heap order; cross-lane events buffer in per-source-lane outboxes
// during the round and merge at the barrier in (source lane, emission order),
// so the sequence numbers they receive — and hence all tie-breaks — are
// independent of worker interleaving. A multicast's copies that reach one
// lane at one instant are one event (see Network.sendMulticast): the batch
// keeps the sequence number its first receiver would have had, and no event
// could have fallen between its receivers, so running them one after the
// other at the heap root reproduces the per-receiver order exactly, on the
// direct-push, outbox and merge paths alike. Window bounds are computed only
// from barrier-time heap minima and the topology matrix, never from worker
// timing. Combined with per-zone RNG streams and barrier-applied group
// membership (see Network), a parallel run is bit-identical to the
// sequential (Workers=1) run of the same program: same delivery order per
// lane, same stats, same payload bytes.
//
// A one-lane clock (an unzoned network) has no barrier at all: Step runs
// exactly one event (one receiver of a multicast batch), the drivers run
// events one at a time in (timestamp, sequence) order, Now tracks the last
// executed event, and no round state — scratch, worker pool, inRound — ever
// exists.
type ShardedClock struct {
	lanes   []*shardLane
	quantum time.Duration
	workers int
	// now is the barrier-synchronized global virtual time: the maximum
	// lane-local time after the last completed round. Between rounds every
	// lane has executed all events below its own window bound.
	now atomic.Int64
	// inRound is set while lane workers execute a window; Network consults it
	// to defer group-membership mutations to the barrier.
	inRound atomic.Bool
	// postRound, when set, runs at each barrier after cross-lane merge (the
	// Network applies deferred membership mutations here).
	postRound func()

	// lookahead is the per-lane-pair hop matrix (nil on one lane); laNs is
	// its barrier snapshot in effective nanoseconds, refreshed when laVersion
	// trails the matrix version.
	lookahead *Lookahead
	laNs      []int64
	laVersion uint64

	// Barrier scratch, touched only by the driving goroutine.
	minAt     []int64 // post-merge per-lane heap minima (laneFar = empty)
	relaxed   []int64 // min-plus closure of minAt over the matrix
	visited   []bool  // closure scratch
	winNs     []int64 // per-lane window bounds for the current round
	activeIdx []int32 // lanes with work below their window, in lane order
	// Outbox merge scratch (group-by-destination batching).
	mergeCount []int32
	mergeStart []int32
	mergeOrder []int32

	// Persistent worker pool (nil with one lane or one worker): workers-1
	// helper goroutines park on the pool's channel; each token carries the
	// clock and is one round participation (claim lanes off cursor until
	// drained, then partWG.Done). The driving goroutine participates too and
	// waits for every woken helper before reusing round state, so rounds
	// allocate nothing and no helper ever reads stale scratch.
	pool        *workerPool
	cursor      atomic.Int64
	partWG      sync.WaitGroup
	roundEvents atomic.Int64

	// Telemetry (see Stats).
	rounds      atomic.Int64
	events      atomic.Int64
	laneRounds  atomic.Int64
	crossMerged atomic.Int64
	causalViol  atomic.Int64

	// lane0 and laneBuf back lanes on a one-lane clock, so an unzoned
	// network's clock costs a single allocation.
	lane0   shardLane
	laneBuf [1]*shardLane
}

// laneFar marks an empty lane's heap minimum; far enough to act as infinity,
// small enough that adding lookahead spans cannot overflow.
const laneFar = int64(math.MaxInt64) / 4

// shardLane is one zone's event domain. All fields are guarded by mu except
// now (atomic: read by the lane's handlers mid-round and by external
// goroutines between rounds) and mayHaveWork.
type shardLane struct {
	mu sync.Mutex
	eh eventHeap
	// now is the lane-local virtual time: the timestamp of the lane's last
	// executed event (monotone), barrier-aligned between rounds.
	now atomic.Int64
	// mayHaveWork is the lane's dirty flag: set (under mu) on every push,
	// cleared (under mu) when the barrier scan finds the heap empty. A false
	// flag lets the scan skip the lane without taking its lock, so idle lanes
	// on sparse topologies cost one atomic load per round.
	mayHaveWork atomic.Bool
	// outbox buffers cross-lane events generated during the current round, in
	// emission order; the barrier merges them into the destination heaps.
	outbox []crossEvent
	// ran counts the events and batch receivers runWindow started on this
	// lane. Only the goroutine executing the lane touches it, reentrant
	// drivers included, so it needs no lock: a batch hand-out compares it
	// across each receiver to notice a handler that drove the lane itself.
	ran uint64
	// The pad rounds the struct up to two cache lines, so lanes, which are
	// allocated one by one, never share a line.
	_ [24]byte
}

// crossEvent is one buffered cross-lane event (a packet delivery, possibly a
// multicast batch, or a plain closure; expiries are always lane-local).
type crossEvent struct {
	at   time.Duration
	lane int32
	fn   func()
	del  *delivery
}

// ShardQuantum returns the conservative lookahead quantum for a network with
// the given jitter fraction: the minimum cross-zone one-hop latency floor.
func ShardQuantum(procJitter float64) time.Duration {
	q := time.Duration(float64(ProcPerPacket) * (1 - procJitter))
	if q < time.Millisecond {
		q = time.Millisecond
	}
	return q
}

// NewShardedClock builds a sharded clock with the given number of zone lanes.
// workers bounds round parallelism: 0 means GOMAXPROCS, 1 forces the
// sequential single-loop schedule (bit-identical to any parallel run).
// With two or more lanes, windows derive from a per-lane-pair lookahead
// matrix that starts empty (every pair at the one-hop quantum); Network
// feeds it the topology through AddNode.
func NewShardedClock(lanes int, workers int, quantum time.Duration) *ShardedClock {
	if lanes <= 1 {
		c := &ShardedClock{workers: 1}
		c.laneBuf[0] = &c.lane0
		c.lanes = c.laneBuf[:]
		return c
	}
	if quantum <= 0 {
		quantum = ShardQuantum(0)
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	c := &ShardedClock{
		lanes:      make([]*shardLane, lanes),
		quantum:    quantum,
		workers:    workers,
		lookahead:  newLookahead(lanes),
		laNs:       make([]int64, lanes*lanes),
		minAt:      make([]int64, lanes),
		relaxed:    make([]int64, lanes),
		visited:    make([]bool, lanes),
		winNs:      make([]int64, lanes),
		activeIdx:  make([]int32, 0, lanes),
		mergeCount: make([]int32, lanes),
		mergeStart: make([]int32, lanes),
	}
	for i := range c.lanes {
		c.lanes[i] = &shardLane{}
	}
	if workers > 1 {
		c.pool = newWorkerPool(workers - 1)
	}
	c.laVersion = c.lookahead.snapshotNs(quantum, c.laNs)
	return c
}

// Lanes returns the number of zone lanes.
func (c *ShardedClock) Lanes() int { return len(c.lanes) }

// Now returns the barrier-synchronized global virtual time. During a round,
// handlers should consult their node's lane-local Now (Node.Now) instead. On
// one lane there is no barrier, and Now is the lane's own time.
func (c *ShardedClock) Now() time.Duration {
	if c.oneLane() {
		return c.laneNow(0)
	}
	return time.Duration(c.now.Load())
}

// oneLane reports whether this is the barrier-free one-lane clock.
func (c *ShardedClock) oneLane() bool { return len(c.lanes) == 1 }

// laneNow returns a lane's local virtual time.
func (c *ShardedClock) laneNow(lane int32) time.Duration {
	return time.Duration(c.lanes[lane].now.Load())
}

// base is the scheduling origin for a lane: its local time mid-round, never
// behind the global barrier time (an external caller between rounds schedules
// relative to the global clock even on a lane that has been idle).
func (c *ShardedClock) base(sl *shardLane) time.Duration {
	b := sl.now.Load()
	if g := c.now.Load(); g > b {
		b = g
	}
	return time.Duration(b)
}

// Schedule runs fn at Now()+delay. Events scheduled without a node land on
// lane 0, the control lane (the border-router zone, where manager and
// clients live); their callbacks run serially with lane 0's own events.
func (c *ShardedClock) Schedule(delay time.Duration, fn func()) {
	c.scheduleLane(0, delay, fn)
}

// scheduleLane runs fn on a lane at that lane's base time + delay.
func (c *ShardedClock) scheduleLane(lane int32, delay time.Duration, fn func()) {
	sl := c.lanes[lane]
	at := c.base(sl) + delay
	sl.mu.Lock()
	sl.eh.pushAt(at, fn)
	sl.mayHaveWork.Store(true)
	sl.mu.Unlock()
}

// scheduleExpiryLane queues a typed expiry event on a lane; the returned ref
// cancels through the lane, which implements expiryCanceler. Timers a node
// arms live on the node's own lane, so cancels stay lane-local. A cancelled
// event is dropped entirely: it neither runs nor advances the clock to its
// timestamp. Cancellation is O(1): the event is marked dead and skipped when
// it surfaces, and the heap compacts when dead events dominate.
func (c *ShardedClock) scheduleExpiryLane(lane int32, delay time.Duration, e Expirer, seq uint64, tok any) ExpiryRef {
	sl := c.lanes[lane]
	at := c.base(sl) + delay
	sl.mu.Lock()
	ev, gen := sl.eh.pushExpiryAt(at, e, seq, tok)
	sl.mayHaveWork.Store(true)
	sl.mu.Unlock()
	return ExpiryRef{c: sl, ev: ev, gen: gen}
}

// cancelExpiry implements expiryCanceler for ExpiryRefs minted on this lane.
func (sl *shardLane) cancelExpiry(ev *scheduled, gen uint64) {
	sl.mu.Lock()
	sl.eh.cancel(ev, gen)
	sl.mu.Unlock()
}

// scheduleDelivery routes a packet delivery (one receiver's, or a multicast
// batch bound for dstLane at one instant). Same-lane deliveries (and any
// delivery scheduled between rounds) go straight into the destination heap;
// cross-lane deliveries emitted mid-round buffer in the source lane's outbox
// until the barrier, which is what keeps destination-heap sequence numbers —
// and with them all tie-breaks — independent of worker interleaving.
func (c *ShardedClock) scheduleDelivery(srcLane, dstLane int32, delay time.Duration, del *delivery) {
	sl := c.lanes[srcLane]
	at := c.base(sl) + delay
	if srcLane == dstLane || !c.inRound.Load() {
		dl := c.lanes[dstLane]
		dl.mu.Lock()
		dl.eh.pushDeliveryAt(at, del)
		dl.mayHaveWork.Store(true)
		dl.mu.Unlock()
		return
	}
	sl.mu.Lock()
	sl.outbox = append(sl.outbox, crossEvent{at: at, lane: dstLane, del: del})
	sl.mu.Unlock()
}

// Stop retires the worker pool (helpers park between rounds, so this never
// interrupts a window); subsequent rounds run on the driving goroutine
// alone. Idempotent, and a no-op on a clock without a pool.
func (c *ShardedClock) Stop() {
	if c.pool != nil {
		c.pool.close()
	}
}

// merge drains every lane's outbox into the destination heaps, in (source
// lane, emission order) — the deterministic part of the barrier. Each
// source's batch is grouped by destination first so every destination heap is
// locked once per source instead of once per event; within one destination
// the emission order (and so the sequence numbering) is preserved, and
// groups of different destinations never share a heap, so the grouping
// cannot affect any tie-break. Cross events timestamped before their
// destination's local clock would be causality violations; they are counted,
// never silently reordered.
func (c *ShardedClock) merge() {
	for _, sl := range c.lanes {
		sl.mu.Lock()
		box := sl.outbox
		if len(box) == 0 {
			// An idle lane keeps its buffer, so the next round's appends
			// reuse it instead of regrowing an array from nothing.
			sl.mu.Unlock()
			continue
		}
		sl.outbox = nil
		sl.mu.Unlock()
		c.mergeBox(box)
		for i := range box {
			box[i] = crossEvent{}
		}
		sl.mu.Lock()
		if sl.outbox == nil {
			sl.outbox = box[:0]
		}
		sl.mu.Unlock()
	}
}

// mergeBox pushes one source lane's outbox, grouped by destination.
func (c *ShardedClock) mergeBox(box []crossEvent) {
	c.crossMerged.Add(int64(len(box)))
	cnt := c.mergeCount
	for i := range cnt {
		cnt[i] = 0
	}
	for i := range box {
		cnt[box[i].lane]++
	}
	if cap(c.mergeOrder) < len(box) {
		c.mergeOrder = make([]int32, len(box))
	}
	ord := c.mergeOrder[:len(box)]
	start := c.mergeStart
	s := int32(0)
	for j := range start {
		start[j] = s
		s += cnt[j]
	}
	for i := range box {
		l := box[i].lane
		ord[start[l]] = int32(i)
		start[l]++
	}
	for j := range c.lanes {
		if cnt[j] == 0 {
			continue
		}
		group := ord[start[j]-cnt[j] : start[j]]
		dl := c.lanes[j]
		dl.mu.Lock()
		lnow := time.Duration(dl.now.Load())
		for _, i := range group {
			ev := &box[i]
			if ev.at < lnow {
				c.causalViol.Add(1)
			}
			if ev.del != nil {
				dl.eh.pushDeliveryAt(ev.at, ev.del)
			} else {
				dl.eh.pushAt(ev.at, ev.fn)
			}
		}
		dl.mayHaveWork.Store(true)
		dl.mu.Unlock()
	}
}

// scanMinima runs the serial head of a barrier: merge stranded outbox entries
// (an external sender racing a round's end can leave one behind), then record
// every lane's heap minimum, skipping lanes whose dirty flag shows them
// empty. Returns the global minimum and whether any event is pending.
func (c *ShardedClock) scanMinima() (int64, bool) {
	c.merge()
	g := laneFar
	for i, sl := range c.lanes {
		if !sl.mayHaveWork.Load() {
			c.minAt[i] = laneFar
			continue
		}
		sl.mu.Lock()
		ev := sl.eh.peek()
		if ev == nil {
			// The flag only resets here, under the same lock pushes take, so
			// a concurrent push cannot be lost: it either lands before the
			// peek or sets the flag after this store.
			sl.mayHaveWork.Store(false)
			sl.mu.Unlock()
			c.minAt[i] = laneFar
			continue
		}
		sl.mu.Unlock()
		c.minAt[i] = int64(ev.at)
		if int64(ev.at) < g {
			g = int64(ev.at)
		}
	}
	return g, g < laneFar
}

// computeWindows fills winNs for a round, bounded by limit (exclusive): each
// lane's bound is w_i = min over j≠i of (m'_j + L(j→i)) with m' the min-plus
// closure of the heap minima over the matrix.
func (c *ShardedClock) computeWindows(limit int64) {
	n := len(c.lanes)
	if v := c.lookahead.version.Load(); v != c.laVersion {
		c.laVersion = c.lookahead.snapshotNs(c.quantum, c.laNs)
	}
	// Min-plus closure of the minima over the matrix (dense Dijkstra; edge
	// weights are positive, lanes are few).
	copy(c.relaxed, c.minAt)
	for i := range c.visited {
		c.visited[i] = false
	}
	for {
		u, best := -1, laneFar
		for i, vis := range c.visited {
			if !vis && c.relaxed[i] < best {
				u, best = i, c.relaxed[i]
			}
		}
		if u < 0 {
			break
		}
		c.visited[u] = true
		row := c.laNs[u*n : (u+1)*n]
		for j := 0; j < n; j++ {
			if j == u || c.visited[j] {
				continue
			}
			if cand := best + row[j]; cand < c.relaxed[j] {
				c.relaxed[j] = cand
			}
		}
	}
	for i := 0; i < n; i++ {
		w := limit
		for j := 0; j < n; j++ {
			if j == i || c.relaxed[j] >= laneFar {
				continue
			}
			if cand := c.relaxed[j] + c.laNs[j*n+i]; cand < w {
				w = cand
			}
		}
		c.winNs[i] = w
	}
}

// runWindow executes up to maxEvents events with timestamps in [*, w1) on
// one lane, in heap order, advancing the lane-local clock; each receiver of
// a multicast batch is one event. Returns the number executed.
func (sl *shardLane) runWindow(w1 time.Duration, maxEvents int) int {
	steps := 0
	for steps < maxEvents {
		sl.mu.Lock()
		ev := sl.eh.peek()
		if ev == nil || ev.at >= w1 {
			sl.mu.Unlock()
			return steps
		}
		if at := int64(ev.at); at > sl.now.Load() {
			sl.now.Store(at)
		}
		if d := ev.del; d != nil && d.next < len(d.dsts)-1 {
			sl.mu.Unlock()
			steps += sl.handOut(d, maxEvents-steps)
			continue
		}
		ev = sl.eh.pop()
		f, pool := extractFiring(&sl.eh, ev)
		sl.mu.Unlock()
		if pool {
			recycleEvent(ev)
		}
		sl.ran++
		f.run()
		steps++
	}
	return steps
}

// handOut runs up to maxEvents receivers of the multicast batch d, which
// sits at the root of the lane's heap, all but its last, and returns how
// many it ran. The batch stays at the root, its key unchanged: nothing can
// overtake it meanwhile, since every event pushed later carries a larger
// sequence number and a timestamp no earlier than the lane's clock. So the
// receivers run one after the other without the lane lock, each one an
// event of its own. A handler that drives the clock reentrantly runs the
// batch's next receiver, as it would have run the next separately queued
// arrival, and may run its last, whose firing pops and recycles d; ran
// shows that, and the hand-out stops so the caller re-reads the heap. Only
// the firing that pops the batch touches d after its last hand-out.
func (sl *shardLane) handOut(d *delivery, maxEvents int) int {
	n, k := d.net, 0
	for k < maxEvents && d.next < len(d.dsts)-1 {
		dst := d.dsts[d.next]
		d.next++
		sl.ran++
		mark := sl.ran
		n.arrive(dst, &d.msg)
		k++
		if sl.ran != mark {
			break
		}
	}
	return k
}

// empty reports whether the lane has no pending event.
func (sl *shardLane) empty() bool {
	sl.mu.Lock()
	defer sl.mu.Unlock()
	return sl.eh.peek() == nil
}

// workerPool is the clock's handle on its helpers, which hold only its
// channel and never the clock, so a clock dropped without Stop is collected:
// the handle, referenced by the clock alone, goes with it and its finalizer
// ends the helpers. (The clock sits in a cycle through the network's
// postRound, so a finalizer on the clock itself would never run.)
type workerPool struct {
	mu sync.Mutex
	// work holds one round's tokens at most (the previous round waited for
	// its helpers), so sends under mu never block. Nil once closed.
	work chan *ShardedClock
}

func newWorkerPool(helpers int) *workerPool {
	p := &workerPool{work: make(chan *ShardedClock, helpers)}
	for i := 0; i < helpers; i++ {
		go helper(p.work)
	}
	runtime.SetFinalizer(p, (*workerPool).close)
	return p
}

// close ends the helpers once they drained the tokens already sent.
// Idempotent.
func (p *workerPool) close() {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.work != nil {
		close(p.work)
		p.work = nil
	}
}

// wake hands a round token to n helpers, or to none once the pool is closed
// (the driving goroutine then claims every lane). Sends and close share the
// lock, so Stop racing a round never sends on a closed channel.
func (c *ShardedClock) wake(n int) {
	p := c.pool
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.work != nil {
		c.partWG.Add(n)
		for i := 0; i < n; i++ {
			p.work <- c
		}
	}
}

// helper runs one round participation per token until the pool closes.
func helper(work <-chan *ShardedClock) {
	for c := range work {
		c.claimLanes()
		c.partWG.Done()
	}
}

// claimLanes pulls active lanes off the shared cursor and runs their windows
// until none remain. Lane windows and step counts index by lane, so
// participants never write shared state beyond the atomics.
func (c *ShardedClock) claimLanes() {
	idx := c.activeIdx
	for {
		k := int(c.cursor.Add(1)) - 1
		if k >= len(idx) {
			return
		}
		li := idx[k]
		if n := c.lanes[li].runWindow(time.Duration(c.winNs[li]), math.MaxInt); n > 0 {
			c.roundEvents.Add(int64(n))
		}
	}
}

// round executes one barrier round: windows from the minima recorded by
// scanMinima, bounded by limit (exclusive); then the barrier — merge
// outboxes, apply deferred network mutations, advance the global clock.
// Returns the number of events executed.
func (c *ShardedClock) round(limit int64) int {
	c.computeWindows(limit)
	active := c.activeIdx[:0]
	for i := range c.lanes {
		if c.minAt[i] < c.winNs[i] {
			active = append(active, int32(i))
		}
	}
	c.activeIdx = active
	total := 0
	c.inRound.Store(true)
	if c.pool == nil || len(active) == 1 {
		for _, li := range active {
			total += c.lanes[li].runWindow(time.Duration(c.winNs[li]), math.MaxInt)
		}
	} else {
		c.cursor.Store(0)
		c.roundEvents.Store(0)
		c.wake(min(c.workers, len(active)) - 1)
		c.claimLanes()
		// Wait for every woken helper, not just for the work to drain: a
		// helper that found the cursor exhausted may still be reading round
		// state, which the next round overwrites.
		c.partWG.Wait()
		total = int(c.roundEvents.Load())
	}
	c.inRound.Store(false)
	c.merge()
	if c.postRound != nil {
		c.postRound()
	}
	gmax := c.now.Load()
	for _, sl := range c.lanes {
		if t := sl.now.Load(); t > gmax {
			gmax = t
		}
	}
	c.now.Store(gmax)
	c.rounds.Add(1)
	c.events.Add(int64(total))
	c.laneRounds.Add(int64(len(active)))
	return total
}

// Step executes the next window of scheduled events (one barrier round),
// advancing the clock. It reports whether any event ran. One sharded Step
// covers up to a window of virtual time, not a single event — drivers that
// step until a condition holds (the SDK's await loop) are unaffected. On one
// lane Step executes exactly one event — one receiver of a multicast batch —
// so closed-loop callers re-check their conditions after every arrival.
func (c *ShardedClock) Step() bool {
	if c.oneLane() {
		return c.lane0.runWindow(math.MaxInt64, 1) > 0
	}
	if _, ok := c.scanMinima(); !ok {
		return false
	}
	return c.round(laneFar) > 0
}

// StepUntil executes at most one barrier round whose windows are additionally
// clamped to the deadline (inclusive), reporting whether any event ran. When
// no pending event is due by the deadline the clock advances straight to it.
// This is the cooperative-driver primitive: one call is one bounded slice of
// parallel work, after which the caller can re-examine its wake conditions.
// On one lane it is RunUntil(deadline) > 0.
func (c *ShardedClock) StepUntil(deadline time.Duration) bool {
	if c.oneLane() {
		return c.RunUntil(deadline) > 0
	}
	g, ok := c.scanMinima()
	if !ok || g > int64(deadline) {
		c.advanceTo(deadline)
		return false
	}
	return c.round(int64(deadline)+1) > 0
}

// RunUntilIdle runs rounds until no events remain (bounded by maxSteps
// executed events; 0 means the 1e6 default). Returns the number of events.
func (c *ShardedClock) RunUntilIdle(maxSteps int) int {
	if maxSteps <= 0 {
		maxSteps = 1_000_000
	}
	if c.oneLane() {
		return c.lane0.runWindow(math.MaxInt64, maxSteps)
	}
	total := 0
	for total < maxSteps {
		if _, ok := c.scanMinima(); !ok {
			break
		}
		total += c.round(laneFar)
	}
	return total
}

// advanceTo lifts every lane (and the global clock) to the deadline.
func (c *ShardedClock) advanceTo(deadline time.Duration) {
	d := int64(deadline)
	for _, sl := range c.lanes {
		if sl.now.Load() < d {
			sl.now.Store(d)
		}
	}
	if c.now.Load() < d {
		c.now.Store(d)
	}
}

// RunUntil processes events up to (and including) the virtual deadline, then
// advances the clock to the deadline.
func (c *ShardedClock) RunUntil(deadline time.Duration) int {
	// Window bounds are exclusive; deadline+1 includes events at the
	// deadline while keeping every lane's clock at or below it.
	if c.oneLane() {
		steps := c.lane0.runWindow(deadline+1, math.MaxInt)
		c.advanceTo(deadline)
		return steps
	}
	steps := 0
	for {
		g, ok := c.scanMinima()
		if !ok || g > int64(deadline) {
			c.advanceTo(deadline)
			return steps
		}
		steps += c.round(int64(deadline) + 1)
	}
}

// RunUntilQuiesced processes events up to (and including) the deadline,
// reporting whether every lane drained before reaching it. On a drain the
// clock stays at the last event's time (like RunUntilIdle); otherwise it
// advances exactly to the deadline with the remaining events still queued.
func (c *ShardedClock) RunUntilQuiesced(deadline time.Duration) bool {
	if c.oneLane() {
		c.lane0.runWindow(deadline+1, math.MaxInt)
		if c.lane0.empty() {
			return true
		}
		c.advanceTo(deadline)
		return false
	}
	for {
		g, ok := c.scanMinima()
		if !ok {
			return true
		}
		if g > int64(deadline) {
			c.advanceTo(deadline)
			return false
		}
		c.round(int64(deadline) + 1)
	}
}

// queueCap exposes the summed backing capacity of the lane heaps; leak tests
// assert it stays bounded.
func (c *ShardedClock) queueCap() int {
	total := 0
	for _, sl := range c.lanes {
		sl.mu.Lock()
		total += cap(sl.eh.queue)
		sl.mu.Unlock()
	}
	return total
}
