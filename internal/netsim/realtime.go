package netsim

import (
	"math"
	"runtime"
	"sync"
	"time"
)

// Due events awaiting a pool worker are firing values (closure, pooled
// packet delivery, or typed expiry), extracted from the heap by the loop.

// RealtimeConfig tunes the wall-clock runtime.
type RealtimeConfig struct {
	// TimeScale maps virtual time onto wall time: a wall second covers
	// TimeScale seconds of virtual time. 1 (or 0) runs in real time;
	// 100 runs a hundred-fold accelerated, so the paper's multi-second
	// plug-in sequences play out in tens of milliseconds. The scale must
	// not be negative.
	TimeScale float64
	// Workers bounds the handler worker pool (0 = min(GOMAXPROCS, 8)).
	// Handlers dispatch from this pool, so at most Workers handlers run
	// concurrently; ready events queue (in timestamp order) when all
	// workers are busy.
	Workers int
}

// RealtimeClock runs the event loop on its own goroutine under the wall
// clock: timers fire via time.Timer (compressed by TimeScale), and due
// handlers are dispatched from a bounded worker pool, so handlers for
// independent events run concurrently and callers block on real channels
// instead of driving the loop themselves.
//
// Virtual timestamps remain the scheduling currency: Now() is the wall time
// elapsed since the clock started, multiplied by the time scale. Runs are
// NOT deterministic — wall-clock jitter reorders same-window events and
// handlers race in the pool. Use the virtual ShardedClock for
// reproducibility.
type RealtimeClock struct {
	scale   float64
	workers int

	mu   sync.Mutex
	cond *sync.Cond // broadcast on any state change: runq, running, queue
	eh   eventHeap
	// runq holds due events awaiting a worker, in pop order. head indexes
	// the next entry; popping advances head instead of reslicing so the
	// backing array is reused once drained (a q=q[1:] pop would force a
	// fresh allocation per queue refill on the hot path).
	runq []firing
	head int
	// running counts handlers currently executing in the pool.
	running int
	stopped bool

	start time.Time // wall anchor; virtual now = elapsed(start) * scale

	wake     chan struct{} // kicks the loop out of a timer wait
	done     chan struct{} // closed by Stop
	stopOnce sync.Once
	wg       sync.WaitGroup
}

// NewRealtimeClock builds and starts a wall-clock runtime.
func NewRealtimeClock(cfg RealtimeConfig) *RealtimeClock {
	scale := cfg.TimeScale
	if scale <= 0 {
		scale = 1
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
		if workers > 8 {
			workers = 8
		}
	}
	c := &RealtimeClock{
		scale:   scale,
		workers: workers,
		start:   time.Now(),
		wake:    make(chan struct{}, 1),
		done:    make(chan struct{}),
	}
	c.cond = sync.NewCond(&c.mu)
	c.wg.Add(1 + workers)
	go c.loop()
	for i := 0; i < workers; i++ {
		go c.worker()
	}
	return c
}

// nowLocked computes the virtual time (c.mu held or single-writer start).
func (c *RealtimeClock) nowLocked() time.Duration {
	return time.Duration(float64(time.Since(c.start)) * c.scale)
}

// Now returns the current virtual time.
func (c *RealtimeClock) Now() time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.nowLocked()
}

// TimeScale returns the virtual-per-wall time factor.
func (c *RealtimeClock) TimeScale() float64 { return c.scale }

// Workers returns the worker-pool bound.
func (c *RealtimeClock) Workers() int { return c.workers }

// Schedule runs fn at Now()+delay (virtual) on a pool worker. Scheduling
// against a stopped clock is a silent no-op, mirroring cancelled events.
func (c *RealtimeClock) Schedule(delay time.Duration, fn func()) {
	c.mu.Lock()
	if c.stopped {
		c.mu.Unlock()
		return
	}
	c.eh.pushAt(c.nowLocked()+delay, fn)
	c.mu.Unlock()
	c.kick()
}

// scheduleDelivery queues a pooled packet delivery at Now()+delay. On a
// stopped clock the delivery is dropped (its buffer is left to the GC).
func (c *RealtimeClock) scheduleDelivery(delay time.Duration, del *delivery) {
	c.mu.Lock()
	if c.stopped {
		c.mu.Unlock()
		return
	}
	c.eh.pushDeliveryAt(c.nowLocked()+delay, del)
	c.mu.Unlock()
	c.kick()
}

// scheduleExpiry queues a typed expiry event at Now()+delay; semantics match
// the virtual clock's (generation-checked, idempotent, O(1) cancel). On a
// stopped clock it returns the inert zero ExpiryRef and the event never
// fires (callers unblock through the deployment's close channel).
func (c *RealtimeClock) scheduleExpiry(delay time.Duration, e Expirer, seq uint64, tok any) ExpiryRef {
	c.mu.Lock()
	if c.stopped {
		c.mu.Unlock()
		return ExpiryRef{}
	}
	ev, gen := c.eh.pushExpiryAt(c.nowLocked()+delay, e, seq, tok)
	c.mu.Unlock()
	c.kick()
	return ExpiryRef{c: c, ev: ev, gen: gen}
}

// cancelExpiry implements expiryCanceler.
func (c *RealtimeClock) cancelExpiry(ev *scheduled, gen uint64) {
	c.mu.Lock()
	if c.eh.cancel(ev, gen) {
		// A cancellation can empty the queue: wake idle waiters.
		c.cond.Broadcast()
	}
	c.mu.Unlock()
}

// runqLen returns the number of due events awaiting a worker (c.mu held).
func (c *RealtimeClock) runqLen() int { return len(c.runq) - c.head }

// kick nudges the loop to re-examine the queue head (non-blocking).
func (c *RealtimeClock) kick() {
	select {
	case c.wake <- struct{}{}:
	default:
	}
}

// loop is the scheduler goroutine: it sleeps until the earliest pending
// event is due on the wall clock, then moves every due event (in timestamp
// order) onto the worker run queue.
func (c *RealtimeClock) loop() {
	defer c.wg.Done()
	// One reusable timer for all waits (Go 1.23 timer semantics make Reset
	// after Stop race-free); allocating a fresh timer per wait dominated the
	// loop's allocation profile under load.
	timer := time.NewTimer(time.Hour)
	timer.Stop()
	for {
		c.mu.Lock()
		if c.stopped {
			c.mu.Unlock()
			return
		}
		ev := c.eh.peek()
		if ev == nil {
			c.mu.Unlock()
			select {
			case <-c.wake:
				continue
			case <-c.done:
				return
			}
		}
		nowV := c.nowLocked()
		if ev.at <= nowV {
			ev = c.eh.pop()
			f, pool := extractFiring(&c.eh, ev)
			c.runq = append(c.runq, f)
			c.cond.Broadcast()
			c.mu.Unlock()
			if pool {
				recycleEvent(ev)
			}
			continue
		}
		wait := time.Duration(float64(ev.at-nowV) / c.scale)
		c.mu.Unlock()
		timer.Reset(wait)
		select {
		case <-timer.C:
		case <-c.wake:
			timer.Stop()
		case <-c.done:
			timer.Stop()
			return
		}
	}
}

// worker executes due handlers from the run queue.
func (c *RealtimeClock) worker() {
	defer c.wg.Done()
	for {
		c.mu.Lock()
		for c.runqLen() == 0 && !c.stopped {
			c.cond.Wait()
		}
		if c.stopped {
			c.mu.Unlock()
			return
		}
		r := c.runq[c.head]
		c.runq[c.head] = firing{}
		c.head++
		if c.head == len(c.runq) {
			// Drained: rewind onto the same backing array. Cap the reused
			// array so one burst does not pin a large buffer forever.
			c.head = 0
			if cap(c.runq) > 1024 {
				c.runq = nil
			} else {
				c.runq = c.runq[:0]
			}
		}
		c.running++
		c.mu.Unlock()
		r.run()
		c.mu.Lock()
		c.running--
		// Completion may have made the runtime idle: wake WaitIdle.
		c.cond.Broadcast()
		c.mu.Unlock()
	}
}

// WaitIdle blocks until no events are pending, none are queued for a worker
// and none are running — i.e. the cascade triggered so far has fully played
// out — or the clock is stopped. Self-rescheduling activities (active
// streams) never go idle; bound those waits with WaitIdleUntil instead.
func (c *RealtimeClock) WaitIdle() { c.WaitIdleUntil(math.MaxInt64) }

// WaitIdleUntil is WaitIdle with a horizon: it blocks until the runtime went
// idle (reporting true) or until the virtual deadline passed on the (scaled)
// wall clock (reporting false, with whatever is still scheduled left to run)
// — the bounded drain for runtimes that can never go idle because streams
// with subscribers reschedule themselves every period. A stopped clock
// reports false. A deadline of math.MaxInt64 sets no horizon.
func (c *RealtimeClock) WaitIdleUntil(deadline time.Duration) bool {
	// Arm a wall-clock wakeup at the deadline: cond.Wait has no timeout, so
	// the waiters below need an external broadcast when time runs out. No
	// horizon needs no wakeup (and would overflow the wall conversion).
	if deadline < math.MaxInt64 {
		if wall := time.Duration(float64(deadline-c.Now()) / c.scale); wall > 0 {
			t := time.AfterFunc(wall, func() {
				c.mu.Lock()
				c.cond.Broadcast()
				c.mu.Unlock()
			})
			defer t.Stop()
		}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for {
		if c.stopped {
			return false
		}
		if c.eh.live() == 0 && c.runqLen() == 0 && c.running == 0 {
			return true
		}
		nowV := c.nowLocked()
		if nowV >= deadline {
			return false
		}
		if c.eh.live() > 0 && c.runqLen() == 0 && c.running == 0 {
			// Only future events remain; the loop is asleep on its timer and
			// nothing will broadcast until it fires. Poll on a wall tick
			// bounded by both the next event and the deadline, so the wait
			// neither spins nor sleeps past the cascade's tail.
			bound := min(c.eh.peek().at, deadline)
			wait := time.Millisecond
			if bound > nowV {
				wait = max(wait, time.Duration(float64(bound-nowV)/c.scale))
			}
			c.mu.Unlock()
			select {
			case <-time.After(wait):
			case <-c.done:
			}
			c.mu.Lock()
			continue
		}
		c.cond.Wait()
	}
}

// queueCap exposes the event queue's backing capacity (leak tests).
func (c *RealtimeClock) queueCap() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return cap(c.eh.queue)
}

// Stop terminates the loop and the worker pool and discards queued events.
// It blocks until every goroutine exited (a handler already running is
// allowed to finish). Stop is idempotent and safe to call concurrently —
// every caller, not just the first, returns only after the goroutines are
// gone. Do not call Stop from inside a handler (it would wait on itself).
func (c *RealtimeClock) Stop() {
	c.stopOnce.Do(func() {
		c.mu.Lock()
		c.stopped = true
		c.runq, c.head = nil, 0
		c.cond.Broadcast()
		c.mu.Unlock()
		close(c.done)
	})
	c.wg.Wait()
	// Wake any WaitIdle callers that raced the shutdown.
	c.cond.Broadcast()
}
