package netsim

import (
	"sync"
	"time"
)

// Expirer receives typed expiry events, the only cancelable timer: a deadline
// or retransmission scheduled through ScheduleExpiry fires as
// ExpireEvent(seq, tok) instead of a closure call. Like pooled deliveries,
// this keeps the request hot path from allocating a closure (and its
// captures) per scheduled timeout. seq is an opaque caller cookie (callers
// pack sequence numbers, generation counters and flags into it); tok is the
// caller's per-request state.
type Expirer interface {
	ExpireEvent(seq uint64, tok any)
}

// expiryCanceler is the clock-side half of ExpiryRef; both clock
// implementations satisfy it.
type expiryCanceler interface {
	cancelExpiry(ev *scheduled, gen uint64)
}

// ExpiryRef is the cancel handle for a typed expiry event. It is a plain
// value (no allocation); the zero value is inert. A cancelled event neither
// fires nor (on the virtual clock) advances time to its timestamp.
// Cancelling after the event fired, or cancelling twice, is a no-op.
type ExpiryRef struct {
	c   expiryCanceler
	ev  *scheduled
	gen uint64
}

// Cancel revokes the expiry if it has not fired. Safe on the zero value.
func (r ExpiryRef) Cancel() {
	if r.c != nil {
		r.c.cancelExpiry(r.ev, r.gen)
	}
}

type eventState uint8

const (
	evPending eventState = iota
	evCancelled
	evFired
)

// scheduled is one queued event: a plain closure (fn), a pooled packet
// delivery (del: every receiver a datagram reaches on one lane at one
// instant) or a typed expiry (exp) — the typed variants let the hot path
// schedule a delivery or a deadline without allocating a closure.
//
// Events are recycled along two paths. Plain events (Schedule, deliveries)
// go through the global scheduledPool: nothing references them after they
// fire. Expiry events instead return to their heap's freelist: their
// ExpiryRef retains the pointer indefinitely, so they must never migrate to
// another clock (a stale Cancel would race the new owner's lock), and reuse
// is guarded by the generation counter — a recycled event's gen no longer
// matches the one the stale ref captured, making its Cancel a no-op.
type scheduled struct {
	at  time.Duration
	fn  func()
	del *delivery
	// exp/expSeq/expTok carry a typed expiry event (ScheduleExpiry); like
	// del, the typed form exists so the request hot path schedules a
	// deadline without a closure allocation. Exactly one of fn/del/exp is
	// set on a pending event.
	exp    Expirer
	expSeq uint64
	expTok any
	state  eventState
	// poolable marks plain events (global pool); expiry events carry
	// gen/next for the per-heap freelist instead.
	poolable bool
	gen      uint64
	next     *scheduled
}

var scheduledPool = sync.Pool{New: func() any { return new(scheduled) }}

// recycleEvent returns a fired poolable event to the global pool. The caller
// must hold the only remaining reference.
func recycleEvent(ev *scheduled) {
	if !ev.poolable {
		return
	}
	*ev = scheduled{}
	scheduledPool.Put(ev)
}

// heapSlot is one event-heap entry. It carries the (at, seq) ordering key
// inline, so sifting compares slots without dereferencing an event; the seq
// tiebreaker makes delivery order deterministic and identical to the former
// stable-sorted-slice implementation (the key is total, so heap pop order
// equals sorted order).
type heapSlot struct {
	at  time.Duration
	seq int
	ev  *scheduled
}

func (a *heapSlot) less(b *heapSlot) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// eventHeap is the lazy-deletion event heap both clock implementations build
// on. It is not self-locking: the owning clock guards it with its own mutex.
type eventHeap struct {
	queue []heapSlot // binary min-heap on (at, seq)
	dead  int        // cancelled events still in the heap (lazy deletion)
	seq   int        // tiebreaker for stable ordering
	// free is the intrusive freelist of retired expiry events. Bounded by
	// the high-water mark of concurrently pending expiries.
	free *scheduled
}

// pushAt inserts a plain (non-cancelable) event at an absolute virtual
// timestamp; it is recycled through the global pool once fired.
func (h *eventHeap) pushAt(at time.Duration, fn func()) *scheduled {
	ev := scheduledPool.Get().(*scheduled)
	ev.fn, ev.del = fn, nil
	ev.state, ev.poolable = evPending, true
	h.push(at, ev)
	return ev
}

// pushDeliveryAt inserts a pooled packet delivery (plain, globally pooled).
func (h *eventHeap) pushDeliveryAt(at time.Duration, del *delivery) {
	ev := scheduledPool.Get().(*scheduled)
	ev.fn, ev.del = nil, del
	ev.state, ev.poolable = evPending, true
	h.push(at, ev)
}

// pushExpiryAt inserts a typed expiry event, reusing the heap's freelist.
// The returned generation goes into the event's ExpiryRef and back to
// cancel: it is what makes a stale Cancel of a recycled event a no-op.
func (h *eventHeap) pushExpiryAt(at time.Duration, e Expirer, seq uint64, tok any) (*scheduled, uint64) {
	ev := h.free
	if ev != nil {
		h.free = ev.next
		ev.next = nil
	} else {
		ev = &scheduled{}
	}
	ev.exp, ev.expSeq, ev.expTok = e, seq, tok
	ev.state, ev.poolable = evPending, false
	h.push(at, ev)
	return ev, ev.gen
}

// retire recycles an event that left the queue (fired or discarded while
// cancelled). Expiry events return to the freelist with their generation
// bumped; plain events are left for the caller to hand to the global pool
// once outside the clock lock.
func (h *eventHeap) retire(ev *scheduled) {
	if ev.poolable {
		return
	}
	ev.gen++
	ev.exp, ev.expTok = nil, nil
	ev.next = h.free
	h.free = ev
}

// cancel marks a pending event dead and compacts when dead events dominate.
// It reports whether the event was still pending; a generation mismatch
// (the event was recycled since this cancel handle was made) is a no-op.
func (h *eventHeap) cancel(ev *scheduled, gen uint64) bool {
	if ev.gen != gen || ev.state != evPending {
		return false
	}
	ev.state = evCancelled
	ev.exp, ev.expTok = nil, nil // release the owner's state right away
	h.dead++
	h.compact()
	return true
}

// compact rebuilds the heap without cancelled events once they outnumber
// live ones (amortised O(1) per cancellation).
func (h *eventHeap) compact() {
	if h.dead <= 64 || h.dead*2 <= len(h.queue) {
		return
	}
	live := h.queue[:0]
	for _, s := range h.queue {
		if s.ev.state == evPending {
			live = append(live, s)
		} else {
			h.retire(s.ev)
		}
	}
	clear(h.queue[len(live):])
	h.queue = live
	for i := len(live)/2 - 1; i >= 0; i-- {
		h.down(i)
	}
	h.dead = 0
}

// push stamps an event with its timestamp and the next sequence number and
// sifts it into the heap.
func (h *eventHeap) push(at time.Duration, ev *scheduled) {
	ev.at = at
	h.seq++
	h.queue = append(h.queue, heapSlot{at: at, seq: h.seq, ev: ev})
	q := h.queue
	j := len(q) - 1
	s := q[j]
	for j > 0 {
		i := (j - 1) / 2
		if !s.less(&q[i]) {
			break
		}
		q[j] = q[i]
		j = i
	}
	q[j] = s
}

// down sifts the slot at i towards the leaves.
func (h *eventHeap) down(i int) {
	q := h.queue
	n := len(q)
	s := q[i]
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && q[r].less(&q[c]) {
			c = r
		}
		if !q[c].less(&s) {
			break
		}
		q[i] = q[c]
		i = c
	}
	q[i] = s
}

// popMin removes the heap's root slot and returns its event.
func (h *eventHeap) popMin() *scheduled {
	q := h.queue
	last := len(q) - 1
	ev := q[0].ev
	q[0] = q[last]
	q[last] = heapSlot{} // release the slot so popped events do not pin the array
	h.queue = q[:last]
	if last > 0 {
		h.down(0)
	}
	return ev
}

// pop removes and returns the next live event, discarding (and retiring)
// cancelled ones, or nil when the queue is drained. The caller extracts
// fn/del and retires the fired event under the clock lock before running it.
func (h *eventHeap) pop() *scheduled {
	for len(h.queue) > 0 {
		ev := h.popMin()
		if ev.state == evCancelled {
			h.dead--
			h.retire(ev)
			continue
		}
		ev.state = evFired
		return ev
	}
	return nil
}

// peek returns the next live event without removing it, discarding cancelled
// events from the top, or nil when the queue is drained.
func (h *eventHeap) peek() *scheduled {
	for len(h.queue) > 0 {
		ev := h.queue[0].ev
		if ev.state != evCancelled {
			return ev
		}
		h.popMin()
		h.dead--
		h.retire(ev)
	}
	return nil
}

// live returns the number of pending (not cancelled) events.
func (h *eventHeap) live() int { return len(h.queue) - h.dead }

// firing is an event payload lifted out of the heap, runnable outside the
// clock lock. Exactly one of fn/del/exp is set; a delivery firing owns the
// popped delivery and runs every receiver it has left.
type firing struct {
	fn     func()
	del    *delivery
	exp    Expirer
	expSeq uint64
	expTok any
}

func (f firing) run() {
	switch {
	case f.del != nil:
		f.del.run()
	case f.exp != nil:
		f.exp.ExpireEvent(f.expSeq, f.expTok)
	default:
		f.fn()
	}
}

// extractFiring empties a popped event's payload into a firing and retires
// the event on its heap (clock lock held). It reports whether the caller must
// hand the event to the global pool once outside the lock.
func extractFiring(h *eventHeap, ev *scheduled) (firing, bool) {
	f := firing{fn: ev.fn, del: ev.del, exp: ev.exp, expSeq: ev.expSeq, expTok: ev.expTok}
	ev.fn, ev.del = nil, nil
	pool := ev.poolable
	h.retire(ev)
	return f, pool
}
