// Stream lifetime through the public SDK: a Thing ends a stream at the
// first tick that finds its group empty, so a stream lives exactly as long
// as some subscriber holds it.
package micropnp_test

import (
	"context"
	"slices"
	"testing"
	"time"

	"micropnp"
)

// streamPeriod is the stream period of the stream-lifetime tests.
const streamPeriod = 2 * time.Second

// streamModes are the clock modes the stream-lifetime tests run in. Under
// the realtime runtime the Thing's membership query races client joins and
// leaves on pool workers.
var streamModes = []struct {
	name string
	opts []micropnp.Option
}{
	{"virtual", nil},
	{"realtime", []micropnp.Option{micropnp.WithRealTime(), micropnp.WithTimeScale(50)}},
}

// newStreamDeployment builds a deployment in the given mode with one Thing
// serving a TMP36 and the given number of clients, the plug-in sequence
// already played out.
func newStreamDeployment(t *testing.T, opts []micropnp.Option, clients int) (*micropnp.Deployment, *micropnp.Thing, []*micropnp.Client) {
	t.Helper()
	d := newSDKDeployment(t, append([]micropnp.Option{micropnp.WithStreamPeriod(streamPeriod)}, opts...)...)
	t.Cleanup(d.Close)
	th, err := d.AddThing("src")
	if err != nil {
		t.Fatal(err)
	}
	cls := make([]*micropnp.Client, clients)
	for i := range cls {
		if cls[i], err = d.AddClient(); err != nil {
			t.Fatal(err)
		}
	}
	if err := th.PlugTMP36(0); err != nil {
		t.Fatal(err)
	}
	d.Run()
	return d, th, cls
}

func subscribe(t *testing.T, cl *micropnp.Client, th *micropnp.Thing) *micropnp.Subscription {
	t.Helper()
	sub, err := cl.Subscribe(context.Background(), th.Addr(), micropnp.TMP36, nil)
	if err != nil {
		t.Fatal(err)
	}
	return sub
}

// TestStreamEndsAfterLastClose: once the last subscriber closed, the Thing
// multicasts nothing more for the stream after at most two periods, and
// Run drains instead of ticking forever.
func TestStreamEndsAfterLastClose(t *testing.T) {
	for _, mode := range streamModes {
		t.Run(mode.name, func(t *testing.T) {
			d, th, cls := newStreamDeployment(t, mode.opts, 1)
			sub := subscribe(t, cls[0], th)
			d.RunFor(3 * streamPeriod)
			if len(sub.Readings()) == 0 {
				t.Fatal("no stream data while subscribed")
			}
			sub.Close()
			d.RunFor(2 * streamPeriod)
			sent := d.NetworkStats().MulticastSent
			d.RunFor(5 * streamPeriod)
			if got := d.NetworkStats().MulticastSent - sent; got != 0 {
				t.Fatalf("%d multicasts from two to seven periods after the last Close, want none", got)
			}

			before := d.Now()
			done := make(chan struct{})
			go func() {
				d.Run()
				close(done)
			}()
			select {
			case <-done:
			case <-time.After(30 * time.Second):
				t.Fatal("Run did not return after the last subscriber left")
			}
			if ran := d.Now() - before; ran > streamPeriod {
				t.Fatalf("Run ran %v of virtual time after the stream ended, want under one period", ran)
			}
		})
	}
}

// TestStreamOutlivesOneOfTwoSubscribers: when one of two subscribers
// closes, the other keeps getting the stream's data.
func TestStreamOutlivesOneOfTwoSubscribers(t *testing.T) {
	for _, mode := range streamModes {
		t.Run(mode.name, func(t *testing.T) {
			d, th, cls := newStreamDeployment(t, mode.opts, 2)
			s1, s2 := subscribe(t, cls[0], th), subscribe(t, cls[1], th)
			d.RunFor(3 * streamPeriod)
			s1.Close()
			before := len(s2.Readings())
			d.RunFor(5*streamPeriod + streamPeriod/2)
			if got := len(s2.Readings()) - before; got < 4 {
				t.Fatalf("the remaining subscriber got %d readings in 5.5 periods after the other closed, want 5", got)
			}
			if s2.Closed() {
				t.Fatal("the remaining subscription was closed")
			}
			s2.Close()
		})
	}
}

// TestStreamResubscribeHasNoGap: a subscriber that closes and subscribes
// again between two ticks keeps getting a reading every period.
func TestStreamResubscribeHasNoGap(t *testing.T) {
	for _, mode := range streamModes {
		t.Run(mode.name, func(t *testing.T) {
			d, th, cls := newStreamDeployment(t, mode.opts, 1)
			first := subscribe(t, cls[0], th)
			d.RunFor(2*streamPeriod + streamPeriod/2)
			first.Close()
			second := subscribe(t, cls[0], th)
			d.RunFor(3 * streamPeriod)
			second.Close()

			var at []time.Duration
			for _, r := range append(first.Readings(), second.Readings()...) {
				at = append(at, r.At)
			}
			slices.Sort(at)
			if len(at) < 4 || len(second.Readings()) < 2 {
				t.Fatalf("readings at %v (%d after re-subscribing), want about one a period throughout", at, len(second.Readings()))
			}
			// The wall clock's scheduling noise, scaled up, stays well
			// under half a period; a lost stream leaves a gap of two or more.
			for i := 1; i < len(at); i++ {
				if gap := at[i] - at[i-1]; gap > streamPeriod+streamPeriod/2 {
					t.Fatalf("readings at %v: a gap of %v across the re-subscription, want about one period", at, gap)
				}
			}
		})
	}
}
