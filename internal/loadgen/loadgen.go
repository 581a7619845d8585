package loadgen

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net/netip"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"micropnp"
)

// opStats aggregates one operation kind's measure-window counters; all
// fields are concurrently updatable so realtime workers never contend on a
// lock.
type opStats struct {
	issued    atomic.Uint64
	completed atomic.Uint64
	errors    atomic.Uint64
	timeouts  atomic.Uint64
	hist      Histogram
}

// backend is the SDK surface a workload op issues through: a deployment's
// *micropnp.Client, or a *micropnp.Fleet routing by prefix to its members
// (the four methods gateway.Backend names).
type backend interface {
	ReadInto(ctx context.Context, thing netip.Addr, id micropnp.DeviceID, scratch []int32) (micropnp.Reading, error)
	Write(ctx context.Context, thing netip.Addr, id micropnp.DeviceID, vals []int32) error
	Discover(ctx context.Context, id micropnp.DeviceID) ([]micropnp.Advert, error)
	Subscribe(ctx context.Context, thing netip.Addr, id micropnp.DeviceID, onReading func(micropnp.Reading)) (*micropnp.Subscription, error)
}

// plan is one operation fully drawn from the schedule rng before execution,
// so realtime op goroutines never touch a shared random stream and the op
// schedule stays seed-deterministic in every mode.
type plan struct {
	op   Op
	tgt  *target
	wr   *target
	cl   backend
	val  int32
	disc micropnp.DeviceID
}

// swapPending is one hot-swap awaiting the new peripheral's advertisement.
type swapPending struct {
	target *target
	newDev micropnp.DeviceID
	from   time.Duration
	rec    bool
	st     *opStats
}

// heldSub is an open subscription a virtual player closes at closeAt; dep is
// the fleet member whose clock the close rides on (0 outside fleet runs).
type heldSub struct {
	sub     *micropnp.Subscription
	closeAt time.Duration
	dep     int
}

type pairKey struct {
	addr netip.Addr
	dev  micropnp.DeviceID
}

type runner struct {
	cfg Config
	// Single-deployment runs drive d directly; fleet runs (cfg.Deployments
	// > 1) drive deps through fleet instead and leave d nil — depClock
	// resolves the right clock either way. clients holds the Clients
	// requests spread across; in fleet runs every slot is the fleet itself.
	d         *micropnp.Deployment
	deps      []*micropnp.Deployment
	fleet     *micropnp.Fleet
	clients   []backend
	targets   []*target
	writables []*target

	failedMgr bool // ManagerFailAt already injected

	start        time.Duration // virtual time the workload begins
	measureStart time.Duration
	measureEnd   time.Duration

	stats   [opKinds]opStats
	shed    atomic.Uint64
	streams atomic.Uint64 // stream data deliveries

	inflight    atomic.Int64
	maxInflight atomic.Int64

	laneHash []uint64
	laneOps  []atomic.Uint64

	swapMu sync.Mutex
	swaps  map[netip.Addr]*swapPending

	// openSubs collects the holds virtual players leave open for teardown
	// (players append in turn, never concurrently); realtime holds run on
	// goroutines coordinated by subWG/stopCh.
	openSubs []heldSub
	subWG    sync.WaitGroup
	stopCh   chan struct{}

	pairMu sync.Mutex
	pairs  map[pairKey]*micropnp.Thing

	bufs sync.Pool // *[]int32 read scratch buffers

	drained bool
}

// Run executes one load run and returns its result. Virtual-mode runs are a
// pure function of cfg (bit-identical histograms for the same seed);
// realtime runs keep the op schedule deterministic but measure real
// latencies.
func Run(cfg Config) (*Result, error) {
	if cfg.Target != "" {
		return runHTTP(cfg)
	}
	_, res, err := run(cfg)
	return res, err
}

// run is Run exposing the runner, so tests can compare raw histogram
// buckets across repeated executions.
func run(cfg Config) (*runner, *Result, error) {
	if err := cfg.normalize(); err != nil {
		return nil, nil, err
	}
	if cfg.Arrival == ArrivalOpen && cfg.Rate <= 0 {
		return nil, nil, fmt.Errorf("loadgen: open-loop runs need a positive rate")
	}
	r := &runner{
		cfg:    cfg,
		swaps:  map[netip.Addr]*swapPending{},
		pairs:  map[pairKey]*micropnp.Thing{},
		stopCh: make(chan struct{}),
	}
	r.bufs.New = func() any { b := make([]int32, 0, 8); return &b }
	lanes := 1
	if cfg.Arrival == ArrivalClosed {
		lanes = cfg.Workers
	}
	r.laneHash = make([]uint64, lanes)
	for i := range r.laneHash {
		r.laneHash[i] = fnvOffset
	}
	r.laneOps = make([]atomic.Uint64, lanes)

	var err error
	if cfg.Deployments > 1 {
		// Fleet mode: one deployment per site, federated behind a Fleet; the
		// fleet's own per-member clients carry the workload, so the runner
		// adds none of its own — every client slot routes through the fleet.
		r.deps = make([]*micropnp.Deployment, cfg.Deployments)
		for i := range r.deps {
			if r.deps[i], err = micropnp.NewDeployment(deployOpts(cfg, cfg.Seed+int64(i)*104729, i)...); err != nil {
				return nil, nil, err
			}
		}
		if r.fleet, err = micropnp.NewFleet(r.deps...); err != nil {
			return nil, nil, err
		}
		for range cfg.Clients {
			r.clients = append(r.clients, r.fleet)
		}
		if r.targets, r.writables, err = buildFleetTopology(r.deps, cfg); err != nil {
			return nil, nil, err
		}
		for _, d := range r.deps {
			d.Run() // drain every member's plug-in sequences
		}
		r.fleet.AddAdvertHook(r.onAdvert)
		// The workload origin is the slowest member's settle instant; the
		// conductor pulls the others level on the first arrival.
		for _, d := range r.deps {
			if now := d.Now(); now > r.start {
				r.start = now
			}
		}
	} else {
		d, derr := micropnp.NewDeployment(deployOpts(cfg, cfg.Seed, 0)...)
		if derr != nil {
			return nil, nil, derr
		}
		if cfg.Realtime {
			defer d.Close()
		}
		r.d = d
		if r.targets, r.writables, err = buildTopology(d, cfg); err != nil {
			return nil, nil, err
		}
		for range cfg.Clients {
			cl, cerr := d.AddClient()
			if cerr != nil {
				return nil, nil, cerr
			}
			r.clients = append(r.clients, cl)
		}
		// Let every plug-in sequence (identify, OTA driver install, advertise)
		// drain before the workload starts; no streams are active yet, so Run
		// terminates in both modes.
		d.Run()
		r.clients[0].(*micropnp.Client).AddAdvertHook(r.onAdvert)
		r.start = d.Now()
	}
	r.measureStart = r.start + cfg.Warmup
	r.measureEnd = r.measureStart + cfg.Duration
	if cfg.Realtime {
		r.runRealtime()
	} else {
		r.runVirtual()
	}
	r.teardown()
	return r, r.result(), nil
}

// deployOpts assembles one deployment's option list. Fleet members get their
// own site (hence a distinct /48 prefix for the fleet's routing) and a
// site-salted seed, so each member's loss/jitter streams differ while the
// whole fleet stays a deterministic function of cfg.Seed.
func deployOpts(cfg Config, seed int64, site int) []micropnp.Option {
	opts := []micropnp.Option{
		micropnp.WithSeed(seed),
		micropnp.WithStreamPeriod(cfg.StreamPeriod),
		micropnp.WithRequestTimeout(cfg.RequestTimeout),
	}
	if site > 0 {
		opts = append(opts, micropnp.WithSite(site))
	}
	if cfg.Managers > 1 {
		opts = append(opts, micropnp.WithManagers(cfg.Managers))
	}
	if cfg.LossRate > 0 {
		opts = append(opts, micropnp.WithLossRate(cfg.LossRate))
	}
	if cfg.Zones > 1 && !cfg.Realtime {
		opts = append(opts, micropnp.WithZones(cfg.Zones))
		if cfg.ShardWorkers > 0 {
			opts = append(opts, micropnp.WithShardWorkers(cfg.ShardWorkers))
		}
	}
	if cfg.Realtime {
		opts = append(opts, micropnp.WithRealTime(), micropnp.WithTimeScale(cfg.TimeScale))
	}
	return opts
}

// depClock resolves the deployment whose virtual clock an event on fleet
// member dep rides on; single-deployment runs always answer r.d.
func (r *runner) depClock(dep int) *micropnp.Deployment {
	if r.fleet == nil {
		return r.d
	}
	return r.deps[dep]
}

// planDep names the fleet member a drawn plan executes against: the target's
// (or write target's) owner, or member 0 for client-side fan-outs (discover).
func (r *runner) planDep(p plan) int {
	switch {
	case p.tgt != nil:
		return p.tgt.dep
	case p.wr != nil:
		return p.wr.dep
	}
	return 0
}

// ---------------------------------------------------------------------------
// Schedule drawing

const fnvOffset = 14695981039346656037

func fnvMix(h uint64, vals ...uint64) uint64 {
	for _, v := range vals {
		for i := 0; i < 8; i++ {
			h ^= (v >> (8 * i)) & 0xff
			h *= 1099511628211
		}
	}
	return h
}

// pickOp draws an operation kind by mix weight, in fixed kind order.
func (r *runner) pickOp(rng *rand.Rand) Op {
	w := rng.Intn(r.cfg.Mix.total())
	for op, weight := range r.cfg.Mix {
		if weight == 0 {
			continue
		}
		if w < weight {
			return Op(op)
		}
		w -= weight
	}
	return OpRead // unreachable
}

// drawPlan draws one operation and folds it into the lane's schedule hash
// (open lanes include the intended arrival instant; closed lanes hash the
// sequence only, since their instants depend on completion times).
func (r *runner) drawPlan(rng *rand.Rand, lane int, intended time.Duration, openLane bool) plan {
	p := plan{op: r.pickOp(rng)}
	tgtIdx, wrIdx, clIdx := -1, -1, 0
	switch p.op {
	case OpWrite:
		wrIdx = rng.Intn(len(r.writables))
		p.wr = r.writables[wrIdx]
		p.val = int32(rng.Intn(256))
		clIdx = p.wr.idx % r.cfg.Clients
	case OpDiscover:
		p.disc = sensorCycle[rng.Intn(len(sensorCycle))]
		clIdx = rng.Intn(r.cfg.Clients)
	default:
		tgtIdx = rng.Intn(len(r.targets))
		p.tgt = r.targets[tgtIdx]
		clIdx = tgtIdx % r.cfg.Clients
	}
	// In fleet runs every client slot is the fleet; the drawn client index
	// still folds into the schedule hash so single- and fleet-mode schedules
	// stay comparable draw for draw.
	p.cl = r.clients[clIdx]
	h := fnvMix(r.laneHash[lane], uint64(p.op), uint64(tgtIdx+1), uint64(wrIdx+1), uint64(clIdx))
	if openLane {
		// Hash the offset from the workload start: the absolute instant the
		// settle phase ends at differs between clock modes, the drawn gaps
		// do not — so one schedule hashes identically in both.
		h = fnvMix(h, uint64(intended-r.start))
	}
	r.laneHash[lane] = h
	return p
}

// interarrival draws the next open-loop gap.
func (r *runner) interarrival(rng *rand.Rand) time.Duration {
	if r.cfg.Process == ProcessFixed {
		return time.Duration(float64(time.Second) / r.cfg.Rate)
	}
	return time.Duration(rng.ExpFloat64() / r.cfg.Rate * float64(time.Second))
}

// laneRng seeds one lane's private random stream.
func (r *runner) laneRng(lane int) *rand.Rand {
	return rand.New(rand.NewSource(r.cfg.Seed + int64(lane)*7919))
}

// recordable reports whether an operation charged to virtual instant t
// belongs to the measure window.
func (r *runner) recordable(t time.Duration) bool {
	return t >= r.measureStart && t < r.measureEnd
}

// ---------------------------------------------------------------------------
// Operation execution (both modes)

// exec performs one drawn operation. Open-loop latency is charged from the
// intended arrival instant (counting backlog delay — the coordinated
// omission correction); closed-loop latency from the actual issue time. The
// op's clock is its target's deployment — in fleet runs each member keeps its
// own virtual timeline and ops route through the fleet surface. A successful
// subscribe returns its hold, due SubHold after establishment on the
// target's clock; the caller keeps it open until then.
func (r *runner) exec(lane int, p plan, intended time.Duration, openLoop bool) heldSub {
	dep := r.planDep(p)
	d := r.depClock(dep)
	from := d.Now()
	if openLoop {
		from = intended
	}
	rec := r.recordable(from)
	st := &r.stats[p.op]
	if rec {
		st.issued.Add(1)
		r.laneOps[lane].Add(1)
	}
	ctx := context.Background()
	switch p.op {
	case OpRead:
		buf := r.bufs.Get().(*[]int32)
		rd, err := p.cl.ReadInto(ctx, p.tgt.addr, p.tgt.device(), *buf)
		if err == nil && rd.Values != nil {
			*buf = rd.Values[:0] // recycle the (possibly grown) scratch
		}
		r.bufs.Put(buf)
		r.finish(d, st, rec, from, err)
	case OpWrite:
		err := p.cl.Write(ctx, p.wr.addr, micropnp.Relay, []int32{p.val})
		r.finish(d, st, rec, from, err)
	case OpDiscover:
		_, err := p.cl.Discover(ctx, p.disc)
		r.finish(d, st, rec, from, err)
	case OpSubscribe:
		sub, err := p.cl.Subscribe(ctx, p.tgt.addr, p.tgt.device(), r.onReading)
		r.finish(d, st, rec, from, err)
		if err == nil {
			r.pairMu.Lock()
			r.pairs[pairKey{p.tgt.addr, sub.Device()}] = p.tgt.thing
			r.pairMu.Unlock()
			return heldSub{sub: sub, closeAt: d.Now() + r.cfg.SubHold, dep: dep}
		}
	case OpDrivers:
		_, err := d.DiscoverDrivers(ctx, p.tgt.thing)
		r.finish(d, st, rec, from, err)
	case OpHotSwap:
		r.execHotSwap(st, p, rec, from)
	}
	return heldSub{}
}

// finish records one synchronous operation outcome; d is the deployment clock
// the op completed on.
func (r *runner) finish(d *micropnp.Deployment, st *opStats, rec bool, from time.Duration, err error) {
	if !rec {
		return
	}
	switch {
	case err == nil:
		st.completed.Add(1)
		st.hist.Record(int64(d.Now() - from))
	case errors.Is(err, micropnp.ErrTimeout):
		st.timeouts.Add(1)
	default:
		st.errors.Add(1)
	}
}

func (r *runner) onReading(micropnp.Reading) { r.streams.Add(1) }

// claimSwapTarget probes forward from the drawn target for one with no swap
// in flight and claims it.
func (r *runner) claimSwapTarget(start *target) *target {
	n := len(r.targets)
	for k := 0; k < n; k++ {
		t := r.targets[(start.idx+k)%n]
		t.mu.Lock()
		if !t.swapping {
			t.swapping = true
			t.mu.Unlock()
			return t
		}
		t.mu.Unlock()
	}
	return nil
}

// execHotSwap unplugs the target's sensor and plugs the next kind in the
// cycle; completion (and the latency sample) is recorded by onAdvert when
// the new peripheral's advertisement arrives.
func (r *runner) execHotSwap(st *opStats, p plan, rec bool, from time.Duration) {
	t := r.claimSwapTarget(p.tgt)
	if t == nil {
		if rec {
			st.errors.Add(1)
		}
		return
	}
	t.mu.Lock()
	old := t.dev
	t.mu.Unlock()
	var newDev micropnp.DeviceID
	for i, dev := range sensorCycle {
		if dev == old {
			newDev = sensorCycle[(i+1)%len(sensorCycle)]
		}
	}
	r.swapMu.Lock()
	r.swaps[t.addr] = &swapPending{target: t, newDev: newDev, from: from, rec: rec, st: st}
	r.swapMu.Unlock()
	err := t.thing.Unplug(0)
	if err == nil {
		err = plugDevice(t.thing, newDev)
	}
	if err != nil {
		r.swapMu.Lock()
		delete(r.swaps, t.addr)
		r.swapMu.Unlock()
		t.mu.Lock()
		t.swapping = false
		t.mu.Unlock()
		if rec {
			st.errors.Add(1)
		}
	}
}

func plugDevice(th *micropnp.Thing, dev micropnp.DeviceID) error {
	switch dev {
	case micropnp.TMP36:
		return th.PlugTMP36(0)
	case micropnp.HIH4030:
		return th.PlugHIH4030(0)
	case micropnp.BMP180:
		return th.PlugBMP180(0)
	}
	return fmt.Errorf("loadgen: no plug helper for device %v", dev)
}

// onAdvert resolves in-flight hot-swaps: the unsolicited advertisement of
// the newly plugged peripheral completes the swap and samples its latency.
func (r *runner) onAdvert(ad micropnp.Advert) {
	if ad.Solicited {
		return
	}
	r.swapMu.Lock()
	sp, ok := r.swaps[ad.Thing]
	if !ok || sp.newDev != ad.Device {
		r.swapMu.Unlock()
		return
	}
	delete(r.swaps, ad.Thing)
	r.swapMu.Unlock()
	sp.target.mu.Lock()
	sp.target.dev = sp.newDev
	sp.target.swapping = false
	sp.target.mu.Unlock()
	if sp.rec {
		sp.st.completed.Add(1)
		sp.st.hist.Record(int64(r.depClock(sp.target.dep).Now() - sp.from))
	}
}

// holdSub keeps a realtime subscription open for SubHold on a parked
// goroutine (cancelled at teardown via stopCh); nil is a no-op.
func (r *runner) holdSub(sub *micropnp.Subscription) {
	if sub == nil {
		return
	}
	r.subWG.Add(1)
	go func() {
		defer r.subWG.Done()
		select {
		case <-time.After(r.wallOf(r.cfg.SubHold)):
		case <-r.stopCh:
		}
		sub.Close()
	}()
}

// enterOp/leaveOp maintain the in-flight gauge and its high-water mark.
func (r *runner) enterOp() {
	n := r.inflight.Add(1)
	for {
		m := r.maxInflight.Load()
		if n <= m || r.maxInflight.CompareAndSwap(m, n) {
			return
		}
	}
}

func (r *runner) leaveOp() { r.inflight.Add(-1) }

// ---------------------------------------------------------------------------
// Virtual mode: the whole run plays out on the simulated timeline, so
// latencies are exact virtual-time spans and the run is bit-for-bit
// reproducible. Single-deployment runs issue their ops from cooperative
// strands under Deployment.Conduct: an open loop from one strand per zone
// lane group (one strand when unzoned), so ops bound for different zones
// overlap in flight between barrier rounds; a closed loop from one strand for
// its whole worker population. Conduct interleaves strands purely by strand
// index, virtual time and completion state, so a run is bit-reproducible
// across shard worker counts. A fleet run plays its arrivals on the calling
// goroutine and steps the member clocks through the conductor.

func (r *runner) runVirtual() {
	if r.cfg.Arrival == ArrivalClosed {
		r.d.Conduct(r.closedLoop)
		return
	}
	groups := r.drawArrivals()
	if r.fleet != nil {
		r.play(groups[0], r.runTo)
		return
	}
	fns := make([]func(*micropnp.Strand), 0, len(groups))
	for _, arr := range groups {
		if len(arr) > 0 {
			fns = append(fns, func(s *micropnp.Strand) { r.play(arr, strandWait(s)) })
		}
	}
	r.d.Conduct(fns...)
}

// waitFn parks a virtual player until instant t: on fleet member dep's clock
// for a subscription close, on every clock when dep < 0.
type waitFn func(dep int, t time.Duration)

// strandWait waits on a conducted strand; its deployment has one clock.
func strandWait(s *micropnp.Strand) waitFn {
	return func(_ int, t time.Duration) { s.Until(t) }
}

// arrival is one pre-drawn open-loop operation and its intended instant.
type arrival struct {
	p  plan
	at time.Duration
}

// drawArrivals pre-draws the whole open-loop schedule from the one open-loop
// rng (interarrival, plan, interarrival, ...) and splits it into player
// groups. A zoned single deployment gets one group per clock lane:
// target-bearing ops go by their target zone's lane (zone % Zones, the
// simulator's zone-to-lane fold), client-side ops (discover) to group 0.
// Every other run is one group.
func (r *runner) drawArrivals() [][]arrival {
	n := 1
	if r.fleet == nil && r.cfg.Zones > 1 {
		n = r.cfg.Zones
	}
	groups := make([][]arrival, n)
	rng := r.laneRng(0)
	for at := r.start + r.interarrival(rng); at < r.measureEnd; at += r.interarrival(rng) {
		p := r.drawPlan(rng, 0, at, true)
		g := 0
		switch {
		case p.wr != nil:
			g = int(p.wr.zone) % n
		case p.tgt != nil:
			g = int(p.tgt.zone) % n
		}
		groups[g] = append(groups[g], arrival{p: p, at: at})
	}
	return groups
}

// play is the open-loop arrival player: it issues one group's arrivals in
// time order, all charged to schedule lane 0 (the schedule is one open-loop
// lane; groups are an execution detail). Before the first arrival at or past
// the ManagerFailAt offset it injects the crash: the clocks reach exactly
// that instant, then manager 0 of deployment 0 fails. Pinning the crash to a
// virtual instant, not an arrival index, lands the failover identically in
// every run of the config; normalize allows it only where one player carries
// every arrival. Holds still open at the end pass to teardown.
func (r *runner) play(arr []arrival, wait waitFn) {
	failAt := r.start + r.cfg.ManagerFailAt
	var subs []heldSub
	for _, a := range arr {
		if r.cfg.ManagerFailAt > 0 && !r.failedMgr && a.at >= failAt {
			r.failedMgr = true
			closeDue(&subs, failAt, wait)
			wait(-1, failAt)
			// normalize guarantees Managers >= 2, so instance 0 exists and a
			// survivor remains; FailManager cannot fail here.
			_ = r.depClock(0).FailManager(0)
		}
		r.issue(&subs, wait, a.at, 0, a.p, true)
	}
	r.openSubs = append(r.openSubs, subs...)
}

// closedLoop runs the closed-loop worker population on one strand: the
// earliest-free worker (lowest index on ties) issues next, a think time after
// its previous op completed.
func (r *runner) closedLoop(s *micropnp.Strand) {
	wait := strandWait(s)
	rngs := make([]*rand.Rand, r.cfg.Workers)
	nextFree := make([]time.Duration, r.cfg.Workers)
	for w := range rngs {
		rngs[w] = r.laneRng(w)
		nextFree[w] = r.start
	}
	var subs []heldSub
	for {
		w := 0
		for i := range nextFree {
			if nextFree[i] < nextFree[w] {
				w = i
			}
		}
		if nextFree[w] >= r.measureEnd {
			break
		}
		r.issue(&subs, wait, nextFree[w], w, r.drawPlan(rngs[w], w, 0, false), false)
		nextFree[w] = s.Now() + r.cfg.Think
	}
	r.openSubs = append(r.openSubs, subs...)
}

// issue waits until instant t, closing the held subscriptions that fall due
// first, then executes p and holds the subscription it opens.
func (r *runner) issue(subs *[]heldSub, wait waitFn, t time.Duration, lane int, p plan, openLoop bool) {
	closeDue(subs, t, wait)
	wait(-1, t)
	r.enterOp()
	if hs := r.exec(lane, p, t, openLoop); hs.sub != nil {
		*subs = append(*subs, hs)
	}
	r.leaveOp()
}

// closeDue closes the held subscriptions falling due at or before limit,
// earliest first, waiting on each one's own clock for its close instant.
func closeDue(subs *[]heldSub, limit time.Duration, wait waitFn) {
	for {
		due := -1
		for i, hs := range *subs {
			if hs.closeAt <= limit && (due < 0 || hs.closeAt < (*subs)[due].closeAt) {
				due = i
			}
		}
		if due < 0 {
			return
		}
		hs := (*subs)[due]
		last := len(*subs) - 1
		(*subs)[due] = (*subs)[last]
		*subs = (*subs)[:last]
		wait(hs.dep, hs.closeAt)
		hs.sub.Close()
	}
}

// runTo runs fleet member dep's clock up to virtual instant t, or every
// member's through the conductor when dep < 0; a single deployment has one
// clock for every dep.
func (r *runner) runTo(dep int, t time.Duration) {
	if r.fleet != nil && dep < 0 {
		r.conductTo(t)
		return
	}
	d := r.depClock(dep)
	if now := d.Now(); now < t {
		d.RunFor(t - now)
	}
}

// conductorQuantum bounds one conductor step: no member clock runs more than
// this far ahead of the laggard while the fleet advances to a common instant.
const conductorQuantum = 250 * time.Millisecond

// conductTo is the fleet conductor: it steps every member deployment's
// virtual clock to instant t round-robin in bounded quanta (member 0 a
// quantum, member 1 a quantum, ... until all reach t). The deployments share
// no simulated links, so the interleave cannot change any member's event
// order — it only keeps the clocks from drifting apart between workload
// arrivals, and the fixed member order keeps the walk deterministic. Zoned
// members apply membership changes at round boundaries, though, so the step
// deadlines are part of the output: one strand per member, stepping to its
// own deadlines, does not reproduce it.
func (r *runner) conductTo(t time.Duration) {
	for {
		behind := false
		for _, d := range r.deps {
			now := d.Now()
			if now >= t {
				continue
			}
			step := t - now
			if step > conductorQuantum {
				step = conductorQuantum
				behind = true
			}
			d.RunFor(step)
		}
		if !behind {
			return
		}
	}
}

// ---------------------------------------------------------------------------
// Realtime mode: genuinely concurrent execution against the wall-clock
// runtime.

// wallOf converts a virtual span to wall time.
func (r *runner) wallOf(span time.Duration) time.Duration {
	return time.Duration(float64(span) / r.cfg.TimeScale)
}

// waitVirtual sleeps until the deployment clock reaches virtual instant t.
func (r *runner) waitVirtual(t time.Duration) {
	for {
		now := r.d.Now()
		if now >= t {
			return
		}
		wall := r.wallOf(t - now)
		if wall < 50*time.Microsecond {
			wall = 50 * time.Microsecond
		}
		time.Sleep(wall)
	}
}

func (r *runner) runRealtime() {
	var wg sync.WaitGroup
	if r.cfg.Arrival == ArrivalOpen {
		rng := r.laneRng(0)
		next := r.start + r.interarrival(rng)
		for next < r.measureEnd {
			r.waitVirtual(next)
			// The plan is drawn for every arrival — shed or not — so the
			// schedule hash covers the whole arrival process.
			p := r.drawPlan(rng, 0, next, true)
			if r.inflight.Load() >= int64(r.cfg.MaxInFlight) {
				if r.recordable(next) {
					r.shed.Add(1)
				}
			} else {
				wg.Add(1)
				intended := next
				go func() {
					defer wg.Done()
					r.enterOp()
					defer r.leaveOp()
					r.holdSub(r.exec(0, p, intended, true).sub)
				}()
			}
			next += r.interarrival(rng)
		}
	} else {
		for w := 0; w < r.cfg.Workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				rng := r.laneRng(w)
				think := r.wallOf(r.cfg.Think)
				for {
					if r.d.Now() >= r.measureEnd {
						return
					}
					p := r.drawPlan(rng, w, 0, false)
					r.enterOp()
					r.holdSub(r.exec(w, p, 0, false).sub)
					r.leaveOp()
					select {
					case <-time.After(think):
					case <-r.stopCh:
						return
					}
				}
			}(w)
		}
	}
	// Give in-flight operations the cooldown to finish; every request is
	// deadline-bounded, so this converges.
	waitTimeout(&wg, r.wallOf(r.cfg.Cooldown))
}

func waitTimeout(wg *sync.WaitGroup, d time.Duration) bool {
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
		return true
	case <-time.After(d):
		return false
	}
}

// ---------------------------------------------------------------------------
// Teardown and result assembly

// teardown closes every subscription, stops the streams the workload
// started (Things keep producing until told to stop, so the network could
// otherwise never quiesce), lets outstanding work drain inside the cooldown
// horizon, and resolves still-pending hot-swaps as timeouts.
func (r *runner) teardown() {
	close(r.stopCh)
	if !r.cfg.Realtime {
		// Holds falling due inside the window close here, on their own
		// clocks, after every player has returned: closing them inside the
		// strands would move where zoned rounds end, and so the output. The
		// rest close at the window's end.
		closeDue(&r.openSubs, r.measureEnd, r.runTo)
		r.runTo(-1, r.measureEnd)
		for _, hs := range r.openSubs {
			hs.sub.Close()
		}
		r.openSubs = nil
	} else {
		waitTimeout(&r.subWG, r.wallOf(r.cfg.SubHold)+time.Second)
	}
	// Stop the streams in deterministic order (map iteration is not).
	r.pairMu.Lock()
	keys := make([]pairKey, 0, len(r.pairs))
	for k := range r.pairs {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].addr != keys[j].addr {
			return keys[i].addr.Less(keys[j].addr)
		}
		return keys[i].dev < keys[j].dev
	})
	things := make([]*micropnp.Thing, len(keys))
	for i, k := range keys {
		things[i] = r.pairs[k]
	}
	r.pairMu.Unlock()
	for i, k := range keys {
		things[i].StopStream(k.dev)
	}
	if r.fleet != nil {
		r.drained = r.fleet.Quiesce(r.cfg.Cooldown)
	} else {
		r.drained = r.d.Quiesce(r.cfg.Cooldown)
	}
}

func (r *runner) result() *Result {
	res := &Result{
		Scenario:   r.cfg.Scenario,
		Mode:       "virtual",
		Seed:       r.cfg.Seed,
		Things:     r.cfg.Things,
		Shape:      string(r.cfg.Shape),
		Clients:    r.cfg.Clients,
		Arrival:    r.cfg.Arrival.String(),
		Mix:        r.cfg.Mix.String(),
		WarmupNs:   int64(r.cfg.Warmup),
		MeasureNs:  int64(r.cfg.Duration),
		CooldownNs: int64(r.cfg.Cooldown),
		Shed:       r.shed.Load(),
		Drained:    r.drained,
		Ops:        map[string]*OpResult{},
	}
	if r.cfg.Realtime {
		res.Mode = "realtime"
		res.TimeScale = r.cfg.TimeScale
	} else {
		res.Zones = r.cfg.Zones
	}
	if r.cfg.Deployments > 1 {
		res.Deployments = r.cfg.Deployments
	}
	if r.cfg.Managers > 1 {
		res.Managers = r.cfg.Managers
	}
	res.ManagerFailNs = int64(r.cfg.ManagerFailAt)
	if r.cfg.Arrival == ArrivalOpen {
		res.Process = r.cfg.Process.String()
		res.RatePerSec = r.cfg.Rate
	} else {
		res.Workers = r.cfg.Workers
		res.ThinkNs = int64(r.cfg.Think)
	}
	// Unresolved hot-swaps never saw their advertisement: charge them as
	// timeouts.
	r.swapMu.Lock()
	for _, sp := range r.swaps {
		res.Unresolved++
		if sp.rec {
			sp.st.timeouts.Add(1)
		}
	}
	r.swaps = map[netip.Addr]*swapPending{}
	r.swapMu.Unlock()

	hash := uint64(0)
	for _, h := range r.laneHash {
		hash ^= h
	}
	res.ScheduleHash = fmt.Sprintf("%016x", hash)
	res.LaneOps = make([]uint64, len(r.laneOps))
	for i := range r.laneOps {
		res.LaneOps[i] = r.laneOps[i].Load()
	}
	res.StreamReadings = r.streams.Load()
	res.MaxInFlight = r.maxInflight.Load()
	var ns micropnp.NetworkStats
	if r.fleet != nil {
		ns = r.fleet.Stats()
	} else {
		ns = r.d.NetworkStats()
	}
	if ns.ShardLanes > 0 {
		res.Shard = &ShardTelemetry{
			Lanes:               ns.ShardLanes,
			Rounds:              ns.ShardRounds,
			Events:              ns.ShardEvents,
			LaneRounds:          ns.ShardLaneRounds,
			CrossMerged:         ns.ShardCrossMerged,
			CausalityViolations: ns.ShardCausalityViolations,
		}
	}

	secs := r.cfg.Duration.Seconds()
	for op := range r.stats {
		if r.cfg.Mix[op] != 0 {
			res.addOp(Op(op), &r.stats[op], secs)
		}
	}
	return res
}
