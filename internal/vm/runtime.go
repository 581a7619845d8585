package vm

import (
	"fmt"
	"time"
)

// Library is a native interconnect library: platform-specific code exposed
// to drivers as signalable operations (Figure 8). Libraries communicate
// results back by posting events to the runtime.
type Library interface {
	// Name is the import name drivers use.
	Name() string
	// Attach binds the library to a runtime (called once at install).
	Attach(rt *Runtime)
	// Invoke performs an operation signalled by the driver. Results and
	// errors are delivered asynchronously via rt.Post / rt.PostError.
	Invoke(op string, args []int32)
	// Detach releases platform resources (driver removal).
	Detach()
}

// Scheduler is the virtual clock a Runtime's timers run on. A µPnP Thing
// runs its drivers on the network simulator's clock, so that driver
// timeouts, sensor conversions and protocol traffic advance coherently.
type Scheduler interface {
	Now() time.Duration
	Schedule(delay time.Duration, fn func())
}

// Runtime hosts one installed driver: the virtual machine, the event router
// and the driver's native library bindings, advanced under a virtual clock.
// It is the per-driver slice of the µPnP execution environment.
type Runtime struct {
	machine *Machine
	router  *Router
	libs    map[string]Library
	sched   Scheduler

	onReturn func([]int32)

	// EmulatedTime accumulates the AVR cost model over all dispatches.
	EmulatedTime time.Duration
	// Dispatches counts handler executions.
	Dispatches int
	// Traps counts runtime faults.
	Traps int

	inErrorDispatch bool
	started         bool
}

// NewRuntime instantiates a driver image on the clock sched and binds its
// native libraries. Every library the driver imports must be supplied.
func NewRuntime(img *Image, sched Scheduler, libs ...Library) (*Runtime, error) {
	rt := &Runtime{machine: img.Instantiate(), router: NewRouter(), libs: map[string]Library{}, sched: sched}
	for _, l := range libs {
		rt.libs[l.Name()] = l
	}
	for _, imp := range img.prog.Imports {
		lib, ok := rt.libs[imp]
		if !ok {
			return nil, fmt.Errorf("vm: driver imports %q but no such library was provided", imp)
		}
		lib.Attach(rt)
	}
	return rt, nil
}

// Machine exposes the underlying machine (diagnostics and tests).
func (rt *Runtime) Machine() *Machine { return rt.machine }

// Now returns the current virtual time.
func (rt *Runtime) Now() time.Duration { return rt.sched.Now() }

// OnReturn registers the callback receiving values produced by the driver's
// return statements (delivered to the pending remote operation).
func (rt *Runtime) OnReturn(fn func([]int32)) { rt.onReturn = fn }

// Post enqueues a regular event for the driver.
func (rt *Runtime) Post(name string, args ...int32) {
	e := Event{Name: name}
	e.packArgs(args)
	rt.router.Post(e)
}

// PostError enqueues a prioritised error event for the driver.
func (rt *Runtime) PostError(name string, args ...int32) {
	e := Event{Name: name, IsError: true}
	e.packArgs(args)
	rt.router.Post(e)
}

// Schedule runs fn at virtual time Now()+delay. The callback also drains
// the event queue afterwards, since no one else steps the runtime.
func (rt *Runtime) Schedule(delay time.Duration, fn func()) {
	rt.sched.Schedule(delay, func() {
		fn()
		rt.RunUntilIdle(0)
	})
}

// Start fires the driver's init event (called when the peripheral is plugged
// in and the driver installed) and drains the queues.
func (rt *Runtime) Start() {
	if rt.started {
		return
	}
	rt.started = true
	rt.Post("init")
	rt.RunUntilIdle(0)
}

// Stop fires destroy (peripheral unplugged), drains, and detaches libraries.
func (rt *Runtime) Stop() {
	if !rt.started {
		return
	}
	rt.Post("destroy")
	rt.RunUntilIdle(0)
	for _, imp := range rt.machine.img.prog.Imports {
		if lib := rt.libs[imp]; lib != nil {
			lib.Detach()
		}
	}
	rt.started = false
}

// Step dispatches one queued event and reports whether there was one.
// Timers fire through the Scheduler, not here.
func (rt *Runtime) Step() bool {
	e, ok := rt.router.Next()
	if ok {
		rt.dispatch(e)
	}
	return ok
}

// RunUntilIdle steps until no events remain. maxSteps 0 means the default
// bound (1e6). It returns the number of steps taken.
func (rt *Runtime) RunUntilIdle(maxSteps int) int {
	if maxSteps <= 0 {
		maxSteps = 1_000_000
	}
	steps := 0
	for steps < maxSteps && rt.Step() {
		steps++
	}
	return steps
}

// dispatch runs one event through the machine and processes its outcome.
func (rt *Runtime) dispatch(e Event) {
	rt.Dispatches++
	rt.EmulatedTime += DefaultAVRTimeModel.Dispatch
	wasError := rt.inErrorDispatch
	rt.inErrorDispatch = e.IsError
	res, err := rt.machine.Run(e.Name, e.payload())
	rt.EmulatedTime += res.EmulatedTime

	if err != nil {
		rt.Traps++
		var te *TrapError
		if ok := asTrap(err, &te); ok && !e.IsError {
			// Surface the trap to the driver's error handlers; traps inside
			// error handlers are dropped to guarantee progress.
			rt.PostError(string(te.Trap))
		}
		rt.inErrorDispatch = wasError
		return
	}
	for _, s := range res.Signals {
		rt.routeSignal(s)
	}
	if res.HasReturn && rt.onReturn != nil {
		rt.onReturn(res.Returned)
	}
	rt.inErrorDispatch = wasError
}

func asTrap(err error, out **TrapError) bool {
	te, ok := err.(*TrapError)
	if ok {
		*out = te
	}
	return ok
}

// routeSignal forwards one emitted signal: "this" back to the driver's own
// queue, anything else to the named native library.
func (rt *Runtime) routeSignal(s Signal) {
	if s.Dest == "this" {
		// Signal.Args are scratch-backed and expire at the machine's next
		// Run; the event queue outlives that, so the self-post takes a copy.
		// Library.Invoke below needs none — invocation is synchronous and
		// libraries read args before returning.
		rt.router.Post(Event{Name: s.Event, Args: append([]int32(nil), s.Args...), Source: "this"})
		return
	}
	lib, ok := rt.libs[s.Dest]
	if !ok {
		// Verified drivers only signal imported libraries; treat anything
		// else as a driver bug surfaced through the error queue.
		rt.PostError(string(TrapBadBytecode))
		return
	}
	lib.Invoke(s.Event, s.Args)
}
