// Concurrency tests for the SDK: parallel Read/Write/Subscribe/Unsubscribe
// across both clock modes, the subscription Close lifecycle, the retry
// (ARQ) layer, and the realtime throughput acceptance test (hundreds of
// goroutines against a 1,000-Thing deployment). All of these run under the
// CI race leg (go test -race -short ./...).
package micropnp_test

import (
	"context"
	"errors"
	"fmt"
	"net/netip"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"micropnp"
)

// throughputScale keeps accelerated-runtime tests fast: virtual seconds
// pass in wall milliseconds.
const throughputScale = 4000

// plugFleet builds a deployment with n Things, each serving a TMP36, and
// returns the Things. The plug-in sequences are left to play out by the
// caller (d.Run()).
func plugFleet(t testing.TB, d *micropnp.Deployment, n int) []*micropnp.Thing {
	t.Helper()
	things := make([]*micropnp.Thing, n)
	for i := range things {
		th, err := d.AddThing(fmt.Sprintf("thing-%d", i))
		if err != nil {
			t.Fatal(err)
		}
		if err := th.PlugTMP36(0); err != nil {
			t.Fatal(err)
		}
		things[i] = th
	}
	return things
}

// TestConcurrentReadsVirtual drives many goroutines through the virtual
// clock: the blocked calls elect one driver to step the simulator while the
// rest park on their completion channels.
func TestConcurrentReadsVirtual(t *testing.T) {
	d, err := micropnp.NewDeployment()
	if err != nil {
		t.Fatal(err)
	}
	things := plugFleet(t, d, 4)
	cl, err := d.AddClient()
	if err != nil {
		t.Fatal(err)
	}
	d.Run()

	const goroutines, per = 24, 5
	var wg sync.WaitGroup
	var failures atomic.Int32
	ctx := context.Background()
	for g := 0; g < goroutines; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < per; k++ {
				th := things[(g+k)%len(things)]
				r, err := cl.Read(ctx, th.Addr(), micropnp.TMP36)
				if err != nil || len(r.Values) == 0 {
					failures.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	if n := failures.Load(); n != 0 {
		t.Fatalf("%d/%d concurrent virtual reads failed", n, goroutines*per)
	}
}

// TestConcurrentSubscribeAndDriverCallsVirtual races stream subscriptions
// and manager driver discoveries against each other on a lossless virtual
// deployment. Every request must arm its deadline after its send: armed
// before, another goroutine driving the virtual clock in between can run
// the deadline out before the request ever leaves, a spurious ErrTimeout.
// The window is narrow, so the test repeats many short rounds.
func TestConcurrentSubscribeAndDriverCallsVirtual(t *testing.T) {
	for round := 0; round < 200; round++ {
		d, err := micropnp.NewDeployment()
		if err != nil {
			t.Fatal(err)
		}
		things := plugFleet(t, d, 4)
		cl, err := d.AddClient()
		if err != nil {
			t.Fatal(err)
		}
		d.Run()

		const goroutines, per = 24, 5
		var wg sync.WaitGroup
		var failures atomic.Int32
		var firstErr atomic.Value
		fail := func(err error) {
			failures.Add(1)
			firstErr.CompareAndSwap(nil, err)
		}
		ctx := context.Background()
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for k := 0; k < per; k++ {
					th := things[(g+k)%len(things)]
					if g%2 == 0 {
						sub, err := cl.Subscribe(ctx, th.Addr(), micropnp.TMP36, nil)
						if err != nil {
							fail(err)
							continue
						}
						sub.Close()
						continue
					}
					if ids, err := d.DiscoverDrivers(ctx, th); err != nil {
						fail(err)
					} else if len(ids) != 1 || ids[0] != micropnp.TMP36 {
						fail(fmt.Errorf("DiscoverDrivers = %v, want [TMP36]", ids))
					}
				}
			}()
		}
		wg.Wait()
		d.Close()
		if n := failures.Load(); n != 0 {
			t.Fatalf("round %d: %d/%d concurrent subscribe/driver calls failed, first: %v",
				round, n, goroutines*per, firstErr.Load())
		}
	}
}

// TestConcurrentMixedOpsRealtime exercises parallel Read, Write, Discover,
// Subscribe and Close against a realtime deployment.
func TestConcurrentMixedOpsRealtime(t *testing.T) {
	d, err := micropnp.NewDeployment(
		micropnp.WithRealTime(),
		micropnp.WithTimeScale(throughputScale),
		micropnp.WithRequestTimeout(30*time.Minute),
		micropnp.WithStreamPeriod(2*time.Second),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	things := plugFleet(t, d, 6)
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
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	// Readers.
	for g := 0; g < 8; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < 4; k++ {
				th := things[(g+k)%len(things)]
				if _, err := cl.Read(ctx, th.Addr(), micropnp.TMP36); err != nil {
					errs <- fmt.Errorf("read: %w", err)
				}
			}
		}()
	}
	// Writers against the relay bank.
	for g := 0; g < 4; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < 3; k++ {
				if err := cl.Write(ctx, relayThing.Addr(), micropnp.Relay, []int32{int32(g + k)}); err != nil {
					errs <- fmt.Errorf("write: %w", err)
				}
			}
		}()
	}
	// Discoverers.
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := cl.Discover(ctx, micropnp.TMP36); err != nil {
				errs <- fmt.Errorf("discover: %w", err)
			}
		}()
	}
	// Subscribers: establish, collect a tick or two, close.
	for g := 0; g < 4; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			sub, err := cl.Subscribe(ctx, things[g%len(things)].Addr(), micropnp.TMP36, nil)
			if err != nil {
				errs <- fmt.Errorf("subscribe: %w", err)
				return
			}
			d.RunFor(3 * time.Second)
			sub.Close()
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestConcurrentDiscoverAndHotSwapRealtime runs discoveries from several
// goroutines while others hot-swap a second peripheral on the Things that
// answer them, with an advert hook listening. Discovery collectors are
// reused across requests and Things re-encode their adverts on every swap,
// so every advert a hook receives or a discovery returns must name its own
// Thing, and no result may change after its discovery returned.
func TestConcurrentDiscoverAndHotSwapRealtime(t *testing.T) {
	d, err := micropnp.NewDeployment(
		micropnp.WithRealTime(),
		micropnp.WithTimeScale(throughputScale),
		micropnp.WithRequestTimeout(2*time.Minute),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	things := plugFleet(t, d, 4)
	names := map[netip.Addr]string{}
	for i, th := range things {
		names[th.Addr()] = fmt.Sprintf("thing-%d", i)
	}
	cl, err := d.AddClient()
	if err != nil {
		t.Fatal(err)
	}
	var hooked, misnamed atomic.Int64
	cl.AddAdvertHook(func(a micropnp.Advert) {
		hooked.Add(1)
		if a.Name != names[a.Thing] {
			misnamed.Add(1)
		}
	})
	d.Run()

	ctx := context.Background()
	var discoverers, swappers sync.WaitGroup
	errs := make(chan error, 64)
	// results[g] holds discoverer g's results, each beside the copy taken
	// as its discovery returned.
	results := make([][][2][]micropnp.Advert, 4)
	for g := range results {
		discoverers.Add(1)
		go func() {
			defer discoverers.Done()
			for k := 0; k < 4; k++ {
				got, err := cl.Discover(ctx, micropnp.AllPeripherals)
				if err != nil {
					errs <- fmt.Errorf("discover: %w", err)
					return
				}
				results[g] = append(results[g], [2][]micropnp.Advert{got, append([]micropnp.Advert(nil), got...)})
			}
		}()
	}
	// Swappers plug and unplug until the last discovery returned.
	stop := make(chan struct{})
	for _, th := range things {
		swappers.Add(1)
		go func() {
			defer swappers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if err := th.PlugHIH4030(1); err != nil {
					errs <- fmt.Errorf("plug: %w", err)
					return
				}
				d.RunFor(time.Second)
				if err := th.Unplug(1); err != nil {
					errs <- fmt.Errorf("unplug: %w", err)
					return
				}
				d.RunFor(time.Second)
			}
		}()
	}
	discoverers.Wait()
	close(stop)
	swappers.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	for g, rs := range results {
		for k, r := range rs {
			got, kept := r[0], r[1]
			if len(got) == 0 {
				t.Errorf("discoverer %d, discovery %d: no adverts", g, k)
			}
			for i := range got {
				if got[i] != kept[i] {
					t.Errorf("discoverer %d, discovery %d: advert %d changed after the call returned: %+v, was %+v", g, k, i, got[i], kept[i])
				}
				if got[i].Name != names[got[i].Thing] {
					t.Errorf("discoverer %d, discovery %d: advert %+v names another Thing", g, k, got[i])
				}
			}
		}
	}
	if hooked.Load() == 0 || misnamed.Load() != 0 {
		t.Errorf("%d of %d hooked adverts name another Thing", misnamed.Load(), hooked.Load())
	}
}

// TestRealtimeThroughput is the acceptance test for the concurrent runtime:
// over a hundred goroutines issue Reads against a 1,000-Thing realtime
// deployment; every read must succeed, and closing the deployment must
// leak no goroutines.
func TestRealtimeThroughput(t *testing.T) {
	nThings, readers, perReader := 1000, 120, 4
	if testing.Short() {
		nThings, readers = 300, 100
	}
	before := runtime.NumGoroutine()
	d, err := micropnp.NewDeployment(
		micropnp.WithRealTime(),
		micropnp.WithTimeScale(throughputScale),
		// A large virtual deadline: the loop fires events in virtual-time
		// order, so replies (sub-second virtual) always beat this expiry
		// even when the worker pool is backlogged on the wall clock.
		micropnp.WithRequestTimeout(30*time.Minute),
	)
	if err != nil {
		t.Fatal(err)
	}
	things := plugFleet(t, d, nThings)
	cl, err := d.AddClient()
	if err != nil {
		t.Fatal(err)
	}
	d.Run() // all 1,000 plug-in cascades drain

	ctx := context.Background()
	var wg sync.WaitGroup
	var ok, failed atomic.Int64
	start := time.Now()
	for g := 0; g < readers; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < perReader; k++ {
				th := things[(g*perReader+k*31)%len(things)]
				if _, err := cl.Read(ctx, th.Addr(), micropnp.TMP36); err != nil {
					failed.Add(1)
				} else {
					ok.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	if f := failed.Load(); f != 0 {
		t.Fatalf("%d/%d concurrent reads failed", f, int64(readers*perReader))
	}
	t.Logf("%d reads by %d goroutines against %d Things in %v (%.0f reads/s)",
		ok.Load(), readers, nThings, elapsed, float64(ok.Load())/elapsed.Seconds())

	d.Close()
	// The loop and every pool worker must exit; allow unrelated runtime
	// goroutines a moment to settle.
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(20 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("goroutine leak: %d before, %d after Close", before, after)
	}
}

// TestNestedSDKCallFromCallbackVirtual guards the reentrant pump path: an
// SDK call issued from inside a simulator-driven callback (here a Write)
// must pump the simulator recursively, exactly as the pre-runtime inline
// Step loop did, instead of parking on the driver — which is this same
// goroutine, blocked inside its own handler. Each SDK entry point that runs
// a user callback records the driver's goroutine for this check, so every
// one of them is covered.
func TestNestedSDKCallFromCallbackVirtual(t *testing.T) {
	type rig struct {
		d     *micropnp.Deployment
		cl    *micropnp.Client
		th    *micropnp.Thing // streams a TMP36
		late  *micropnp.Thing // plugged after arming, so it advertises
		ctx   context.Context
		fired func() // the callback body: one nested Write
	}
	cases := []struct {
		name string
		arm  func(t *testing.T, r rig)
	}{
		{"Subscribe", func(t *testing.T, r rig) {
			sub, err := r.cl.Subscribe(r.ctx, r.th.Addr(), micropnp.TMP36, func(micropnp.Reading) { r.fired() })
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(sub.Close)
		}},
		{"AddAdvertHook", func(t *testing.T, r rig) {
			r.cl.AddAdvertHook(func(micropnp.Advert) { r.fired() })
			if err := r.late.PlugTMP36(0); err != nil {
				t.Fatal(err)
			}
		}},
		{"ScheduleAfter", func(t *testing.T, r rig) {
			r.d.ScheduleAfter(time.Second, r.fired)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			d, err := micropnp.NewDeployment(micropnp.WithStreamPeriod(time.Second))
			if err != nil {
				t.Fatal(err)
			}
			th := plugFleet(t, d, 1)[0]
			relayThing, err := d.AddThing("relays")
			if err != nil {
				t.Fatal(err)
			}
			relay, err := relayThing.PlugRelay(0)
			if err != nil {
				t.Fatal(err)
			}
			late, err := d.AddThing("late")
			if err != nil {
				t.Fatal(err)
			}
			cl, err := d.AddClient()
			if err != nil {
				t.Fatal(err)
			}
			d.Run()

			ctx := context.Background()
			var nestedErr error
			nested := false
			tc.arm(t, rig{d: d, cl: cl, th: th, late: late, ctx: ctx, fired: func() {
				if nested {
					return
				}
				nested = true
				// A blocking SDK call from inside the callback.
				nestedErr = cl.Write(ctx, relayThing.Addr(), micropnp.Relay, []int32{0b11})
			}})
			done := make(chan struct{})
			go func() {
				d.RunFor(3 * time.Second)
				close(done)
			}()
			select {
			case <-done:
			case <-time.After(30 * time.Second):
				t.Fatal("nested SDK call deadlocked the virtual pump")
			}
			if !nested {
				t.Fatal("callback never ran; nested call untested")
			}
			if nestedErr != nil {
				t.Fatalf("nested write failed: %v", nestedErr)
			}
			if got := relay.State(); got != 0b11 {
				t.Fatalf("relay state = %08b after nested write", got)
			}
		})
	}
}

// TestCloseUnblocksParkedCalls closes a realtime deployment while readers
// are parked on requests that can never complete (unreachable Thing, huge
// deadline): every parked call must return ErrClosed promptly instead of
// hanging forever on an expiry event the dead clock will never fire.
func TestCloseUnblocksParkedCalls(t *testing.T) {
	d, err := micropnp.NewDeployment(
		micropnp.WithRealTime(),
		micropnp.WithTimeScale(10), // slow: the virtual expiry is hours of wall time away
		micropnp.WithRequestTimeout(24*time.Hour),
	)
	if err != nil {
		t.Fatal(err)
	}
	cl, err := d.AddClient()
	if err != nil {
		t.Fatal(err)
	}
	d.Run()
	ghost := netip.MustParseAddr("2001:db8::dead")
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		go func() {
			_, err := cl.Read(context.Background(), ghost, micropnp.TMP36)
			errs <- err
		}()
	}
	time.Sleep(20 * time.Millisecond) // let the readers park
	d.Close()
	for g := 0; g < 8; g++ {
		select {
		case err := <-errs:
			if !errors.Is(err, micropnp.ErrClosed) {
				t.Fatalf("parked read returned %v, want ErrClosed", err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("read still parked after Close")
		}
	}
}

// TestSubscriptionCloseIdempotent double-closes a subscription in virtual
// mode: the second Close must be a no-op and the handle must stay usable.
func TestSubscriptionCloseIdempotent(t *testing.T) {
	d, err := micropnp.NewDeployment(micropnp.WithStreamPeriod(time.Second))
	if err != nil {
		t.Fatal(err)
	}
	th := plugFleet(t, d, 1)[0]
	cl, err := d.AddClient()
	if err != nil {
		t.Fatal(err)
	}
	d.Run()
	sub, err := cl.Subscribe(context.Background(), th.Addr(), micropnp.TMP36, nil)
	if err != nil {
		t.Fatal(err)
	}
	d.RunFor(2500 * time.Millisecond)
	got := len(sub.Readings())
	if got == 0 {
		t.Fatal("no readings before Close")
	}
	sub.Close()
	sub.Close() // idempotent
	if !sub.Closed() {
		t.Fatal("Closed() false after Close")
	}
	d.RunFor(3 * time.Second)
	if after := len(sub.Readings()); after != got {
		t.Fatalf("readings grew after Close: %d -> %d", got, after)
	}
}

// TestSubscriptionCloseConcurrentWithDelivery races many Closes against
// in-flight stream deliveries on the realtime runtime: no panic, no double
// teardown, and Readings stays stable once Close has been observed.
func TestSubscriptionCloseConcurrentWithDelivery(t *testing.T) {
	d, err := micropnp.NewDeployment(
		micropnp.WithRealTime(),
		micropnp.WithTimeScale(throughputScale),
		micropnp.WithRequestTimeout(30*time.Minute),
		micropnp.WithStreamPeriod(500*time.Millisecond), // dense virtual ticks
	)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	th := plugFleet(t, d, 1)[0]
	cl, err := d.AddClient()
	if err != nil {
		t.Fatal(err)
	}
	d.Run()

	// Stream ticks fire on the network's own goroutines; pace the test on
	// the wall clock rather than virtual spans.
	waitFor := func(cond func() bool) bool {
		deadline := time.Now().Add(10 * time.Second)
		for time.Now().Before(deadline) {
			if cond() {
				return true
			}
			time.Sleep(time.Millisecond)
		}
		return false
	}

	ctx := context.Background()
	for round := 0; round < 5; round++ {
		var delivered atomic.Int32
		sub, err := cl.Subscribe(ctx, th.Addr(), micropnp.TMP36, func(micropnp.Reading) {
			delivered.Add(1)
		})
		if err != nil {
			t.Fatal(err)
		}
		// Let ticks flow, then close from several goroutines at once while
		// deliveries are still arriving.
		if !waitFor(func() bool { return delivered.Load() >= 2 }) {
			t.Fatalf("round %d: stream delivered nothing", round)
		}
		var wg sync.WaitGroup
		for c := 0; c < 8; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				sub.Close()
			}()
		}
		wg.Wait()
		if !sub.Closed() {
			t.Fatal("Closed() false after concurrent Close")
		}
		// The stream keeps ticking on the Thing side; the closed handle
		// must stay stable (modulo the one documented in-flight delivery,
		// which the handle's closed check drops from Readings).
		stable := len(sub.Readings())
		time.Sleep(20 * time.Millisecond)
		if after := len(sub.Readings()); after != stable {
			t.Fatalf("round %d: readings grew after Close: %d -> %d", round, stable, after)
		}
	}
	// The Thing still streams; a fresh subscription must work after all
	// those closes.
	sub, err := cl.Subscribe(ctx, th.Addr(), micropnp.TMP36, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !waitFor(func() bool { return len(sub.Readings()) > 0 }) {
		t.Fatal("no readings on a fresh subscription after concurrent closes")
	}
	sub.Close()
}
