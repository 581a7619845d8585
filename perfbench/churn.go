package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net/netip"
	"runtime"
	"sort"
	"time"

	"micropnp"
)

// zoned-churn: an open loop of seeded Poisson arrivals in virtual time on
// the zone-sharded clock, heavy on hot-swaps, discoveries and
// subscriptions, over a lossy network with the SDK's retransmission policy
// on.
const (
	churnThings = 2000
	churnZones  = 8
	churnLoss   = 0.02
	// churnRate is the arrival rate in operations per virtual second. A
	// measure window spans churnWindow of virtual time, which a 2-core x86
	// box measures in 16-23 s, and a run measures one window per
	// churnWindowSeconds of --seconds. A longer window would grow the live
	// heap further (about 190 MiB at 900 virtual seconds) and slow every
	// operation, so a longer run measures more windows instead.
	churnRate          = 3.5
	churnWindow        = 600 * time.Second
	churnWindowSeconds = 20
	churnTimeout       = 2 * time.Second // request deadline and discovery window
	churnRetries       = 2               // SDK retransmissions per call
	churnBackoff       = 500 * time.Millisecond
	churnCallTries     = 8 // calls per operation before it counts as failed
	churnSubHold       = 15 * time.Second
	churnSweepEvery    = 10 * time.Second
	churnSwapPoll      = 50 * time.Millisecond
	churnSwapDeadline  = 8 * time.Second
	churnSwapTries     = 3
	churnReplugRounds  = 4
)

// churnMix is the operation mix by weight.
var churnMix = []struct {
	kind   opKind
	weight int
}{{opHotSwap, 30}, {opSubscribe, 20}, {opDiscover, 10}, {opRead, 30}, {opWrite, 10}}

func buildChurn(seed int64, tr *tracer) (*world, error) {
	d, err := micropnp.NewDeployment(
		micropnp.WithSeed(seed),
		micropnp.WithZones(churnZones),
		micropnp.WithShardWorkers(runtime.GOMAXPROCS(0)),
		micropnp.WithLossRate(churnLoss),
		micropnp.WithRetryPolicy(churnRetries, churnBackoff),
		micropnp.WithRequestTimeout(churnTimeout),
		micropnp.WithStreamPeriod(5*time.Second),
	)
	if err != nil {
		return nil, err
	}
	w := &world{d: d, tr: tr}
	if w.cl, err = d.AddClient(); err != nil {
		return nil, err
	}
	if err := w.observeAdverts(); err != nil {
		return nil, err
	}
	if err := w.buildZones(churnThings, churnZones); err != nil {
		return nil, err
	}
	w.drain()
	// A plug-in whose driver requests were all lost is redone by unplugging
	// and replugging the peripheral, as an installer would.
	for round := 0; round < churnReplugRounds; round++ {
		if w.replugIncomplete() == 0 {
			break
		}
		w.drain()
	}
	if err := w.checkSetup(); err != nil {
		return nil, err
	}
	w.setEnv(randomEnv(subRand(seed, streamEnv)))
	// Warm-up: one discovery per sensor kind fills the multicast plans.
	for _, dev := range sensorKinds {
		if _, err := w.cl.Discover(context.Background(), dev); err != nil {
			return nil, fmt.Errorf("warm-up discovery: %w", err)
		}
	}
	return w, nil
}

// replugIncomplete replugs every channel-0 or channel-2 sensor whose last
// plug-in has not completed and returns how many it replugged.
func (w *world) replugIncomplete() int {
	n := 0
	for _, t := range w.things {
		trs := t.th.Traces()
		for _, ch := range []int{0, 1, 2} {
			var last *micropnp.PluginTrace
			for _, tr := range trs {
				if tr.Channel == ch {
					last = tr
				}
			}
			if last == nil || last.Done {
				continue
			}
			dev := micropnp.DeviceID(last.DeviceID)
			if err := t.th.Unplug(ch); err != nil {
				continue
			}
			if dev == micropnp.Relay {
				rb, err := t.th.PlugRelay(ch)
				if err == nil {
					t.relay = rb
				}
			} else {
				_ = plugSensor(t.th, ch, dev)
			}
			n++
		}
	}
	return n
}

type churnArrival struct {
	at   time.Duration
	kind opKind
	t    *thingRef
	dev  micropnp.DeviceID // discover: the kind sought
	val  int32             // write: the relay pattern
}

// heldSub is a subscription the strand closes at closeAt.
type heldSub struct {
	sub     *micropnp.Subscription
	closeAt time.Duration
}

// drawChurn draws a run's arrivals: exactly rate × span operations, as a
// Poisson process conditioned on that count (arrival instants uniform over
// the span), with each kind's share of the mix exact and the kinds in
// seeded order. Fixing the count and the shares keeps the work of a run the
// same from seed to seed; the seed picks the instants, order and targets.
func drawChurn(w *world, rng *rand.Rand, start, span time.Duration) []churnArrival {
	n := int(churnRate * span.Seconds())
	total := 0
	for _, m := range churnMix {
		total += m.weight
	}
	kinds := make([]opKind, 0, n)
	for i, m := range churnMix {
		k := n * m.weight / total
		if i == len(churnMix)-1 {
			k = n - len(kinds)
		}
		for j := 0; j < k; j++ {
			kinds = append(kinds, m.kind)
		}
	}
	rng.Shuffle(len(kinds), func(i, j int) { kinds[i], kinds[j] = kinds[j], kinds[i] })
	at := make([]time.Duration, n)
	for i := range at {
		at[i] = start + time.Duration(rng.Int63n(int64(span)))
	}
	sort.Slice(at, func(i, j int) bool { return at[i] < at[j] })
	arr := make([]churnArrival, n)
	for i := range arr {
		a := churnArrival{at: at[i], kind: kinds[i]}
		switch a.kind {
		case opWrite:
			a.t = w.relays[rng.Intn(len(w.relays))]
			a.val = int32(rng.Intn(256))
		case opDiscover:
			a.dev = sensorKinds[rng.Intn(len(sensorKinds))]
		default:
			a.t = w.things[rng.Intn(len(w.things))]
		}
		arr[i] = a
	}
	return arr
}

// churnRun is the state the strands of one measured pass share. Strands
// run one at a time under Conduct, so it needs no lock.
type churnRun struct {
	w         *world
	o         *outcome
	known     map[netip.Addr]bool
	nextSweep time.Duration
}

// churnWindowCount is how many windows a run of the given length measures.
func churnWindowCount(seconds int) int {
	return max(1, seconds/churnWindowSeconds)
}

// churnSpan is the virtual span of one window: churnWindow, or a share of
// it for a run shorter than churnWindowSeconds.
func churnSpan(seconds int) time.Duration {
	return churnWindow * time.Duration(min(seconds, churnWindowSeconds)) / churnWindowSeconds
}

func measureChurn(w *world, seed int64, seconds int) (*outcome, error) {
	start := w.d.Now()
	arrivals := drawChurn(w, subRand(seed, streamOps), start, churnSpan(seconds))
	count := len(arrivals)
	// One strand per zone lane: operations on a Thing run on its zone's
	// strand, discoveries round-robin over all strands.
	groups := make([][]churnArrival, churnZones)
	for i, a := range arrivals {
		g := i % churnZones
		if a.t != nil {
			g = int(a.t.zone) % churnZones
		}
		groups[g] = append(groups[g], a)
	}
	r := &churnRun{w: w, o: newOutcome(w, count), known: map[netip.Addr]bool{}, nextSweep: start + churnSweepEvery}
	for _, t := range w.things {
		r.known[t.addr] = true
	}
	fns := make([]func(*micropnp.Strand), 0, len(groups))
	for _, arr := range groups {
		if len(arr) > 0 {
			fns = append(fns, func(s *micropnp.Strand) { r.strand(s, arr) })
		}
	}
	r.o.start(w)
	sp := w.tr.begin(spanNetsimDrive, 0, nil)
	w.d.Conduct(fns...)
	w.tr.end(sp)
	r.o.stop(w)
	r.o.failed += r.o.streamBad
	if r.o.attempted != count {
		return nil, errors.New("zoned-churn: not every arrival ran")
	}
	return r.o, nil
}

// strand plays one group's arrivals in time order, closing the
// subscriptions it opened as they fall due.
func (r *churnRun) strand(s *micropnp.Strand, arr []churnArrival) {
	var subs []heldSub
	for i := range arr {
		a := &arr[i]
		r.closeDue(s, &subs, a.at)
		s.Until(a.at)
		if now := s.Now(); now >= r.nextSweep {
			r.w.cat.Sweep()
			r.nextSweep = now + churnSweepEvery
		}
		r.o.lagVirt += s.Now() - a.at
		r.o.inflightMax = max(r.o.inflightMax, r.w.cl.InFlight())
		id := int64(r.o.attempted)
		root := r.w.tr.begin(spanOp, id, nil)
		t0 := time.Now()
		ok := r.exec(s, a, id, &root, &subs)
		el := time.Since(t0)
		r.w.tr.end(root)
		r.o.record(a.kind, el, ok)
	}
	r.closeDue(s, &subs, 1<<62)
}

// closeDue closes the held subscriptions due at or before limit, earliest
// first, parking until each is due.
func (r *churnRun) closeDue(s *micropnp.Strand, subs *[]heldSub, limit time.Duration) {
	for {
		due := -1
		for i, h := range *subs {
			if h.closeAt <= limit && (due < 0 || h.closeAt < (*subs)[due].closeAt) {
				due = i
			}
		}
		if due < 0 {
			return
		}
		h := (*subs)[due]
		*subs = append((*subs)[:due], (*subs)[due+1:]...)
		s.Until(h.closeAt)
		h.sub.Close()
	}
}

// retry repeats a call that timed out, up to churnCallTries calls.
func (r *churnRun) retry(call func() error) error {
	var err error
	for try := 0; try < churnCallTries; try++ {
		if try > 0 {
			r.o.retries++
		}
		if err = call(); !errors.Is(err, micropnp.ErrTimeout) {
			return err
		}
	}
	return err
}

func (r *churnRun) exec(s *micropnp.Strand, a *churnArrival, id int64, root *spanRef, subs *[]heldSub) bool {
	ctx := context.Background()
	w := r.w
	switch a.kind {
	case opRead:
		var rd micropnp.Reading
		from := s.Now()
		sp := w.tr.begin(spanSDKRead, id, root)
		err := r.retry(func() (err error) {
			rd, err = w.cl.ReadInto(ctx, a.t.addr, a.t.sensor, nil)
			return err
		})
		w.tr.end(sp)
		if err != nil {
			return false
		}
		r.o.recordRead(a.t.sensor, s.Now()-from)
		return w.env.checkReading(a.t.sensor, rd.Values)
	case opWrite:
		sp := w.tr.begin(spanSDKWrite, id, root)
		err := r.retry(func() error { return w.cl.Write(ctx, a.t.addr, micropnp.Relay, []int32{a.val}) })
		w.tr.end(sp)
		return err == nil && a.t.relay.State() == byte(a.val)
	case opDiscover:
		sp := w.tr.begin(spanSDKDiscover, id, root)
		ads, err := w.cl.Discover(ctx, a.dev)
		w.tr.end(sp)
		if err != nil {
			return false
		}
		// A reply lists every peripheral of the replying Thing.
		found := false
		for _, ad := range ads {
			if !r.known[ad.Thing] {
				return false
			}
			found = found || ad.Device == a.dev
		}
		return found
	case opSubscribe:
		dev := a.t.sensor
		var sub *micropnp.Subscription
		sp := w.tr.begin(spanSDKSubscribe, id, root)
		err := r.retry(func() (err error) {
			sub, err = w.cl.Subscribe(ctx, a.t.addr, dev, func(rd micropnp.Reading) {
				if !w.env.checkReading(dev, rd.Values) {
					r.o.streamBad++
				}
			})
			return err
		})
		w.tr.end(sp)
		if err != nil {
			return false
		}
		*subs = append(*subs, heldSub{sub: sub, closeAt: s.Now() + churnSubHold})
		return true
	case opHotSwap:
		sp := w.tr.begin(spanHotSwap, id, root)
		ok := r.hotSwap(s, a.t)
		w.tr.end(sp)
		return ok
	}
	return false
}

// hotSwap replaces the sensor on channel 0 with the next kind and waits
// for the Thing to finish the plug-in (identification, driver install,
// advertisement). A plug-in that does not finish in time is redone.
func (r *churnRun) hotSwap(s *micropnp.Strand, t *thingRef) bool {
	next := t.sensor
	for next == t.sensor || next == t.extra {
		next = sensorKinds[(indexOf(next)+1)%len(sensorKinds)]
	}
	for try := 0; try < churnSwapTries; try++ {
		before := len(t.th.Traces())
		if err := t.th.Unplug(0); err != nil {
			return false
		}
		if err := plugSensor(t.th, 0, next); err != nil {
			return false
		}
		deadline := s.Now() + churnSwapDeadline
		for s.Now() < deadline {
			s.Until(s.Now() + churnSwapPoll)
			if trs := t.th.Traces(); len(trs) > before && trs[len(trs)-1].Done {
				t.sensor = next
				return micropnp.DeviceID(trs[len(trs)-1].DeviceID) == next
			}
		}
		r.o.retries++
	}
	return false
}

func indexOf(dev micropnp.DeviceID) int {
	for i, k := range sensorKinds {
		if k == dev {
			return i
		}
	}
	return -1
}
