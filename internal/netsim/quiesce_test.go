package netsim

import (
	"sync/atomic"
	"testing"
	"time"
)

// TestVirtualRunUntilQuiesced: on the one-lane virtual clock, the bounded
// drain runs everything due inside the horizon, reports idle only when the
// queue actually drained, and leaves later events queued.
func TestVirtualRunUntilQuiesced(t *testing.T) {
	c := NewShardedClock(1, 1, 0)
	var ran []int
	c.Schedule(1*time.Second, func() { ran = append(ran, 1) })
	c.Schedule(2*time.Second, func() { ran = append(ran, 2) })
	c.Schedule(5*time.Second, func() { ran = append(ran, 5) })

	if c.RunUntilQuiesced(3 * time.Second) {
		t.Fatal("reported idle with an event still queued past the horizon")
	}
	if len(ran) != 2 || ran[0] != 1 || ran[1] != 2 {
		t.Fatalf("ran = %v, want the two due events in order", ran)
	}
	if now := c.Now(); now != 3*time.Second {
		t.Fatalf("clock at %v after a non-drained quiesce, want the 3s horizon", now)
	}
	if !c.RunUntilQuiesced(10 * time.Second) {
		t.Fatal("queue drained but quiesce reported not idle")
	}
	if len(ran) != 3 {
		t.Fatalf("ran = %v", ran)
	}
	if now := c.Now(); now != 5*time.Second {
		t.Fatalf("clock at %v after draining, want the last event's 5s (not the horizon)", now)
	}
	// Draining an empty queue is immediately idle and does not advance.
	if !c.RunUntilQuiesced(20*time.Second) || c.Now() != 5*time.Second {
		t.Fatalf("idle quiesce misbehaved: now = %v", c.Now())
	}
}

// TestVirtualQuiesceSelfRescheduling: an event that reschedules itself (the
// stream-tick shape) can never drain; the quiesce must stop at the horizon.
func TestVirtualQuiesceSelfRescheduling(t *testing.T) {
	c := NewShardedClock(1, 1, 0)
	ticks := 0
	var tick func()
	tick = func() {
		ticks++
		c.Schedule(time.Second, tick)
	}
	c.Schedule(time.Second, tick)
	if c.RunUntilQuiesced(10 * time.Second) {
		t.Fatal("self-rescheduling load reported idle")
	}
	if c.Now() != 10*time.Second {
		t.Fatalf("now = %v, want the horizon", c.Now())
	}
	if ticks != 10 {
		t.Fatalf("ticks = %d, want 10", ticks)
	}
}

// TestRealtimeWaitIdleUntil: the realtime variant drains within the horizon
// when the cascade is finite and gives up at the horizon when it is not.
func TestRealtimeWaitIdleUntil(t *testing.T) {
	c := NewRealtimeClock(RealtimeConfig{TimeScale: 1000})
	defer c.Stop()

	var fired atomic.Int32
	c.Schedule(100*time.Millisecond, func() { fired.Add(1) })
	c.Schedule(300*time.Millisecond, func() { fired.Add(1) })
	if !c.WaitIdleUntil(c.Now() + 30*time.Second) {
		t.Fatal("finite cascade did not drain inside a generous horizon")
	}
	if fired.Load() != 2 {
		t.Fatalf("fired = %d", fired.Load())
	}

	// A self-rescheduling tick never drains: the bounded wait must return
	// false once the horizon passes.
	var stop atomic.Bool
	var tick func()
	tick = func() {
		if !stop.Load() {
			c.Schedule(50*time.Millisecond, tick)
		}
	}
	c.Schedule(50*time.Millisecond, tick)
	if c.WaitIdleUntil(c.Now() + 2*time.Second) {
		t.Fatal("self-rescheduling load reported idle")
	}
	stop.Store(true)
	if !c.WaitIdleUntil(c.Now() + 30*time.Second) {
		t.Fatal("did not drain after the tick stopped rescheduling")
	}
}
