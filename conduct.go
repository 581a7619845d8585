package micropnp

import (
	"time"
)

// Conduct runs a set of functions as cooperative strands of one
// deterministic schedule, in virtual mode: each strand gets its own
// goroutine, but exactly one runs at a time, handed a baton by an
// orchestrator that owns the simulator for the duration of the call. A
// strand runs until it blocks — on a synchronous SDK call (Read, Write,
// Discover, Subscribe, ...) or on Strand.Until — then yields; the
// orchestrator resumes every runnable strand in index order, and only when
// none is runnable advances the network by one bounded barrier round (or to
// the earliest Until deadline) and re-checks. Conduct returns when every
// strand function has returned.
//
// Because strand interleaving is decided purely by strand index, virtual
// time and completion state — never by goroutine scheduling — a conducted
// program is bit-deterministic like a single-goroutine one, while zone-aware
// workloads issue ops from one strand per zone group between rounds instead
// of a single thread feeding all lanes. internal/loadgen plays every
// single-deployment virtual run this way.
//
// Constraints: virtual mode only (panics in realtime mode — plain goroutines
// are the right tool there); strand functions must make SDK calls with
// contexts that carry no deadline (WithRequestTimeout bounds them in virtual
// time; wall-clock deadlines would break determinism) and must not call
// Run/RunFor/Quiesce/Conduct themselves — the orchestrator owns the clock.
func (d *Deployment) Conduct(fns ...func(*Strand)) {
	if d.cfg.net.Realtime {
		panic("micropnp: Conduct requires virtual mode")
	}
	if len(fns) == 0 {
		return
	}
	d.waiters.Add(1)
	defer d.waiters.Add(-1)
	d.pumpMu.Lock()
	defer func() {
		d.conduct.Store(nil)
		d.unlockPump()
	}()
	c := &conductor{byGid: make(map[int64]*Strand, len(fns))}
	for _, fn := range fns {
		s := &Strand{d: d, resume: make(chan struct{}), yielded: make(chan struct{})}
		c.strands = append(c.strands, s)
		go s.top(fn)
		<-s.yielded // the strand recorded its gid and parked before fn runs
		c.byGid[s.gid] = s
	}
	// Publish the gid map only when complete: from here SDK calls on strand
	// goroutines divert into parkAwait instead of the await driver election.
	d.conduct.Store(c)
	net := d.net
	for {
		// Resume every runnable strand, in index order, until a full pass
		// finds none. A resumed strand may complete another's wake condition
		// (an op it issues can't, before time advances, but finishing changes
		// allDone), so the pass repeats while it makes progress.
		for progress := true; progress; {
			progress = false
			for _, s := range c.strands {
				if s.state != strandDone && s.runnable(net.Now()) {
					s.handoff()
					progress = true
				}
			}
		}
		allDone := true
		wake := time.Duration(-1)
		for _, s := range c.strands {
			switch s.state {
			case strandDone:
				continue
			case strandWaitUntil:
				if wake < 0 || s.wakeAt < wake {
					wake = s.wakeAt
				}
			}
			allDone = false
		}
		if allDone {
			return
		}
		if wake >= 0 {
			net.StepUntil(wake)
			continue
		}
		// Every live strand waits on a completion; one bounded round fires
		// the earliest pending events. Every SDK request arms a virtual-time
		// expiry right after its send, so a drained queue here cannot happen.
		if !net.Step() {
			panic("micropnp: conducted strands blocked on a drained simulator")
		}
	}
}

// conductor is one Conduct call's strand registry; immutable once published.
type conductor struct {
	strands []*Strand
	byGid   map[int64]*Strand
}

// conductedStrand returns the Strand owning the calling goroutine, or nil
// when no Conduct is active or the goroutine is not a strand. Only the
// active case pays for the goroutine-id lookup.
func (d *Deployment) conductedStrand() *Strand {
	c := d.conduct.Load()
	if c == nil {
		return nil
	}
	return c.byGid[gid()]
}

type strandState int

const (
	strandRunnable  strandState = iota // primed or resumable; run on next pass
	strandWaitDone                     // parked in an SDK call on cpl
	strandWaitUntil                    // parked in Until(wakeAt)
	strandDone                         // function returned
)

// Strand is one cooperative lane of a Conduct schedule. Its methods are only
// meaningful on the strand's own goroutine, while it holds the baton.
type Strand struct {
	d   *Deployment
	gid int64
	// resume and yielded are the unbuffered baton channels: the orchestrator
	// sends resume to run the strand and receives yielded when it parks or
	// finishes. The state fields below are written by whichever side holds
	// the baton and read by the other after the handoff, so the channel
	// synchronization orders every access.
	resume  chan struct{}
	yielded chan struct{}
	state   strandState
	wakeAt  time.Duration
	cpl     *completion
}

// top is the strand goroutine's trampoline: record the gid, park once for
// registration, then run fn to completion.
func (s *Strand) top(fn func(*Strand)) {
	s.gid = gid()
	s.yielded <- struct{}{}
	<-s.resume
	fn(s)
	s.state = strandDone
	s.yielded <- struct{}{}
}

// runnable reports whether the strand's wake condition holds.
func (s *Strand) runnable(now time.Duration) bool {
	switch s.state {
	case strandRunnable:
		return true
	case strandWaitDone:
		return s.cpl.fired.Load()
	case strandWaitUntil:
		return now >= s.wakeAt
	}
	return false
}

// handoff passes the baton to the strand and waits for it back.
func (s *Strand) handoff() {
	s.state = strandRunnable
	s.resume <- struct{}{}
	<-s.yielded
}

// Until parks the strand until virtual time reaches t. If the clock is
// already past t (lanes can run ahead of a strand's schedule), it returns
// immediately — open-loop issue semantics.
func (s *Strand) Until(t time.Duration) {
	if s.d.Now() >= t {
		return
	}
	s.state = strandWaitUntil
	s.wakeAt = t
	s.yielded <- struct{}{}
	<-s.resume
}

// Now returns the current virtual time.
func (s *Strand) Now() time.Duration { return s.d.Now() }

// parkAwait is the conducted branch of Deployment.await: instead of joining
// the driver election, the strand yields the baton with its completion
// attached and blocks until the orchestrator — having advanced the simulator
// far enough for the completion to fire — resumes it. The request's
// virtual-time expiry guarantees the completion fires, so conducted calls
// never hang and never time out at this layer (the op itself may still
// report ErrTimeout through its callback).
func (s *Strand) parkAwait(cpl *completion) error {
	s.state = strandWaitDone
	s.cpl = cpl
	s.yielded <- struct{}{}
	<-s.resume
	s.cpl = nil
	<-cpl.ch
	// Not recycled here: await hands the fired completion back to the SDK
	// call, which harvests its result slots and recycles it.
	return nil
}
