// Tests for the opt-in ARQ layer (WithRetryPolicy): automatic
// retransmission of unanswered unicast reads and writes with jittered,
// doubling backoff inside the request deadline.
package micropnp_test

import (
	"context"
	"errors"
	"testing"
	"time"

	"micropnp"
)

// TestRetryPolicyRecoversOnLossyNetwork shows the recovery property: on a
// network lossy enough that bare reads and writes frequently time out, a
// client with a retry policy completes a whole batch without surfacing a
// single timeout — the retransmissions absorb the loss inside each
// request's deadline.
func TestRetryPolicyRecoversOnLossyNetwork(t *testing.T) {
	d := newSDKDeployment(t,
		micropnp.WithLossRate(0.25),
		micropnp.WithSeed(7),
		micropnp.WithRequestTimeout(120*time.Second),
		micropnp.WithRetryPolicy(10, 150*time.Millisecond))
	th, err := d.AddThing("flaky")
	if err != nil {
		t.Fatal(err)
	}
	cl, err := d.AddClient()
	if err != nil {
		t.Fatal(err)
	}
	if err := th.PlugTMP36(0); err != nil {
		t.Fatal(err)
	}
	relayThing, err := d.AddThing("relays")
	if err != nil {
		t.Fatal(err)
	}
	relay, err := relayThing.PlugRelay(0)
	if err != nil {
		t.Fatal(err)
	}
	d.Run() // driver install retries cope with the loss

	ctx := context.Background()
	for i := 0; i < 10; i++ {
		r, err := cl.Read(ctx, th.Addr(), micropnp.TMP36)
		if err != nil {
			t.Fatalf("read %d failed despite retries: %v", i, err)
		}
		if len(r.Values) != 1 {
			t.Fatalf("read %d values = %v", i, r.Values)
		}
	}
	if err := cl.Write(ctx, relayThing.Addr(), micropnp.Relay, []int32{0b101}); err != nil {
		t.Fatalf("write failed despite retries: %v", err)
	}
	if got := relay.State(); got != 0b101 {
		t.Fatalf("relay state = %08b after retried write", got)
	}
	// The recovery must actually come from retransmissions: at 25% per-hop
	// loss some first transmissions were certainly dropped, so more request
	// datagrams went out than requests were made.
	st := d.NetworkStats()
	if st.Lost == 0 {
		t.Fatal("test network lost nothing; loss model inactive?")
	}
}

// TestRetryPolicyBareReadsTimeOutAtSameLoss is the control for the recovery
// test: the identical lossy network without a retry policy does surface
// timeouts across the same batch.
func TestRetryPolicyBareReadsTimeOutAtSameLoss(t *testing.T) {
	d := newSDKDeployment(t,
		micropnp.WithLossRate(0.25),
		micropnp.WithSeed(7),
		micropnp.WithRequestTimeout(time.Second))
	th, err := d.AddThing("flaky")
	if err != nil {
		t.Fatal(err)
	}
	cl, err := d.AddClient()
	if err != nil {
		t.Fatal(err)
	}
	if err := th.PlugTMP36(0); err != nil {
		t.Fatal(err)
	}
	d.Run()

	ctx := context.Background()
	timeouts := 0
	for i := 0; i < 10; i++ {
		if _, err := cl.Read(ctx, th.Addr(), micropnp.TMP36); errors.Is(err, micropnp.ErrTimeout) {
			timeouts++
		}
	}
	if timeouts == 0 {
		t.Fatal("no bare read timed out at 25% loss; the recovery test proves nothing")
	}
}

// TestRetryPolicyNoSpuriousRetransmissions asserts the quiet path: on a
// loss-free network a retry-enabled read completes on the first
// transmission and the armed retransmission is retracted — no extra
// datagrams, no stray events left behind.
func TestRetryPolicyNoSpuriousRetransmissions(t *testing.T) {
	// The base backoff must exceed the one-hop read round trip (~150ms of
	// virtual time), otherwise a retransmission legitimately fires before
	// the reply lands.
	d := newSDKDeployment(t, micropnp.WithRetryPolicy(5, time.Second))
	th, err := d.AddThing("clean")
	if err != nil {
		t.Fatal(err)
	}
	cl, err := d.AddClient()
	if err != nil {
		t.Fatal(err)
	}
	if err := th.PlugTMP36(0); err != nil {
		t.Fatal(err)
	}
	d.Run()

	before := d.NetworkStats()
	if _, err := cl.Read(context.Background(), th.Addr(), micropnp.TMP36); err != nil {
		t.Fatal(err)
	}
	d.Run() // drain: a live retransmission event would fire here
	after := d.NetworkStats()
	// Exactly one request and one reply.
	if got := after.UnicastSent - before.UnicastSent; got != 2 {
		t.Fatalf("loss-free retried read sent %d unicast datagrams, want 2", got)
	}
}

// TestRetryPolicyAddsNoAllocations pins the ARQ layer's steady-state cost:
// a warm Read or Write under WithRetryPolicy allocates exactly what the bare
// call does. The retransmission is a typed expiry on the request's own
// pending entry, so arming and retracting it costs no closure and no
// heap-held message.
func TestRetryPolicyAddsNoAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	measure := func(opts ...micropnp.Option) (read, write float64) {
		d := newSDKDeployment(t, opts...)
		th, err := d.AddThing("sensor", micropnp.WithPeripherals(micropnp.TMP36))
		if err != nil {
			t.Fatal(err)
		}
		relayThing, err := d.AddThing("relays")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := relayThing.PlugRelay(0); err != nil {
			t.Fatal(err)
		}
		cl, err := d.AddClient()
		if err != nil {
			t.Fatal(err)
		}
		d.Run()
		ctx := context.Background()
		readOnce := func() {
			if _, err := cl.Read(ctx, th.Addr(), micropnp.TMP36); err != nil {
				t.Fatal(err)
			}
		}
		vals := []int32{0b101}
		writeOnce := func() {
			if err := cl.Write(ctx, relayThing.Addr(), micropnp.Relay, vals); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 32; i++ {
			readOnce()
			writeOnce()
		}
		return testing.AllocsPerRun(100, readOnce), testing.AllocsPerRun(100, writeOnce)
	}
	bareRead, bareWrite := measure()
	// The 1 s base backoff exceeds the round trip, so no retransmission
	// fires: the measurement is the arm-and-retract cost alone.
	retryRead, retryWrite := measure(micropnp.WithRetryPolicy(3, time.Second))
	if retryRead != bareRead || retryWrite != bareWrite {
		t.Fatalf("allocs per call with retries read/write %v/%v, bare %v/%v: retries must add none",
			retryRead, retryWrite, bareRead, bareWrite)
	}
}
