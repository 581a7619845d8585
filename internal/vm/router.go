// Package vm implements the µPnP execution environment of Section 4.2: a
// stack-based virtual machine interpreting driver bytecode, an event router
// with a FIFO queue for regular events and a priority queue for errors, and
// the native interconnect libraries (adc, uart, i2c, spi, timer) that expose
// platform I/O to platform-independent drivers.
package vm

import (
	"sync"
	"time"
)

// Event is a message exchanged between drivers, native libraries and the
// network stack. All I/O in µPnP is modelled as events.
type Event struct {
	// Name selects the driver handler (or library operation) to run.
	Name string
	// Args are the event payload values.
	Args []int32
	// argv/argn hold small payloads (≤2 values) inline: Runtime.Post packs
	// values here instead of allocating an Args slice, and the queue's
	// by-value copies carry the array along. payload() resolves whichever
	// form is set — always call it on the dequeued copy, never retain the
	// result past the dispatch.
	argv [2]int32
	argn int8
	// IsError routes the event through the priority queue and dispatches it
	// to an error handler.
	IsError bool
	// Source identifies the originator (diagnostic).
	Source string
}

// payload returns the event's argument values, whichever way they are
// stored. The slice may alias the event's inline array: it is valid only for
// the duration of the dispatch that dequeued the event.
func (e *Event) payload() []int32 {
	if e.Args != nil {
		return e.Args
	}
	if e.argn == 0 {
		return nil
	}
	return e.argv[:e.argn]
}

// packArgs stores args in the event: inline when they fit (keeping the
// caller's variadic slice on its stack), as an owned copy otherwise.
func (e *Event) packArgs(args []int32) {
	if len(args) <= len(e.argv) {
		e.argn = int8(copy(e.argv[:], args))
		return
	}
	e.Args = append([]int32(nil), args...)
}

// evQueue is a FIFO over a reusable backing array: popping advances a head
// index instead of re-slicing, and a drained queue rewinds to reuse its
// array — steady-state post/dispatch cycles allocate nothing (the former
// `q = q[1:]` pop abandoned the backing array's front, so every append
// eventually grew a fresh one).
type evQueue struct {
	buf  []Event
	head int
}

func (q *evQueue) push(e Event) { q.buf = append(q.buf, e) }

func (q *evQueue) len() int { return len(q.buf) - q.head }

func (q *evQueue) pop() Event {
	e := q.buf[q.head]
	q.buf[q.head] = Event{} // release Args/Name references
	q.head++
	if q.head == len(q.buf) {
		q.buf = q.buf[:0]
		q.head = 0
	}
	return e
}

// Router implements the two event queues of the execution environment:
// regular events are handled first-come first-served, error events are
// prioritised. Posting never blocks; control returns immediately to the
// originator (Section 4.2).
type Router struct {
	mu     sync.Mutex
	fifo   evQueue
	errors evQueue
}

// NewRouter returns an empty router.
func NewRouter() *Router { return &Router{} }

// Post enqueues an event on the appropriate queue.
func (r *Router) Post(e Event) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if e.IsError {
		r.errors.push(e)
	} else {
		r.fifo.push(e)
	}
}

// Next dequeues the next event to dispatch: all pending errors drain before
// any regular event.
func (r *Router) Next() (Event, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.errors.len() > 0 {
		return r.errors.pop(), true
	}
	if r.fifo.len() > 0 {
		return r.fifo.pop(), true
	}
	return Event{}, false
}

// Len returns the number of queued events.
func (r *Router) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.fifo.len() + r.errors.len()
}

// AVRTimeModel emulates the measured execution costs of the prototype on the
// 16 MHz ATMega128RFA1 (Section 6.2): a push() costs 11.1 µs, a pop()
// 8.9 µs, the remainder of instruction decode/dispatch is the base cost, and
// routing one event through the queues costs 77.79 µs. With this model the
// average bytecode instruction lands at ≈39.7 µs, matching the paper.
type AVRTimeModel struct {
	Base     time.Duration
	PushCost time.Duration
	PopCost  time.Duration
	Dispatch time.Duration
}

// DefaultAVRTimeModel reproduces the Section 6.2 measurements.
var DefaultAVRTimeModel = AVRTimeModel{
	Base:     12 * time.Microsecond,
	PushCost: 11100 * time.Nanosecond,
	PopCost:  8900 * time.Nanosecond,
	Dispatch: 77790 * time.Nanosecond,
}

// InstructionCost returns the emulated cost of one instruction given how
// many stack pushes and pops it performs.
func (m AVRTimeModel) InstructionCost(pushes, pops int) time.Duration {
	return m.Base + time.Duration(pushes)*m.PushCost + time.Duration(pops)*m.PopCost
}
