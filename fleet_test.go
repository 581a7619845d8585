// Fleet federation tests: prefix routing, fan-out discovery, the unified
// advert flow, and -race coverage of concurrent Fleet calls in both clock
// modes.
package micropnp_test

import (
	"context"
	"errors"
	"net/netip"
	"reflect"
	"sync"
	"testing"
	"time"

	"micropnp"
)

// newTestFleet builds an n-deployment fleet (sites 0..n-1, two managers
// each), one Thing per deployment carrying a TMP36, all plug-ins completed.
func newTestFleet(t *testing.T, n int, extra ...micropnp.Option) (*micropnp.Fleet, []*micropnp.Thing) {
	t.Helper()
	deps := make([]*micropnp.Deployment, n)
	things := make([]*micropnp.Thing, n)
	for i := range deps {
		opts := append([]micropnp.Option{
			micropnp.WithSite(i),
			micropnp.WithManagers(2),
		}, extra...)
		d := newSDKDeployment(t, opts...)
		d.SetEnvironment(20.0+float64(i), 40, 101_325)
		th, err := d.AddThing("probe", micropnp.WithPeripherals(micropnp.TMP36))
		if err != nil {
			t.Fatal(err)
		}
		deps[i] = d
		things[i] = th
	}
	f, err := micropnp.NewFleet(deps...)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range deps {
		d.Run()
		if d.Realtime() {
			t.Cleanup(d.Close)
		}
	}
	return f, things
}

// TestFleetPrefixRouting reads every deployment's Thing through one Fleet:
// each request must land on the right network, which shows in the distinct
// simulated temperatures.
func TestFleetPrefixRouting(t *testing.T) {
	f, things := newTestFleet(t, 3)
	ctx := context.Background()
	for i, th := range things {
		r, err := f.Read(ctx, th.Addr(), micropnp.TMP36)
		if err != nil {
			t.Fatalf("fleet read of deployment %d: %v", i, err)
		}
		want := int32((20 + i) * 10) // TMP36 reports tenths of °C
		if len(r.Values) != 1 || r.Values[0] < want-2 || r.Values[0] > want+2 {
			t.Fatalf("deployment %d read %v, want ~[%d] (its own simulated climate)", i, r.Values, want)
		}
		if got := f.DeploymentFor(th.Addr()); got != th.Deployment() {
			t.Fatalf("DeploymentFor(%v) routed to the wrong deployment", th.Addr())
		}
	}
	// Writes route as well: the relay lives only in deployment 1.
	relay, err := things[1].Deployment().AddThing("panel")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := relay.PlugRelay(0); err != nil {
		t.Fatal(err)
	}
	things[1].Deployment().Run()
	if err := f.Write(ctx, relay.Addr(), micropnp.Relay, []int32{1}); err != nil {
		t.Fatalf("fleet write: %v", err)
	}
}

// TestFleetNoDeployment pins the routing error: an address under no member
// prefix fails fast with ErrNoDeployment, wrapped for errors.Is.
func TestFleetNoDeployment(t *testing.T) {
	f, _ := newTestFleet(t, 2)
	stranger := mustAddr("2001:db8:99::123")
	if _, err := f.Read(context.Background(), stranger, micropnp.TMP36); !errors.Is(err, micropnp.ErrNoDeployment) {
		t.Fatalf("Read(foreign addr) = %v, want ErrNoDeployment", err)
	}
	if err := f.Write(context.Background(), stranger, micropnp.Relay, []int32{1}); !errors.Is(err, micropnp.ErrNoDeployment) {
		t.Fatalf("Write(foreign addr) = %v, want ErrNoDeployment", err)
	}
	if f.DeploymentFor(stranger) != nil {
		t.Fatal("DeploymentFor(foreign addr) must be nil")
	}
}

// TestFleetDuplicatePrefix: two deployments on the same site cannot be
// federated — prefix routing could not tell them apart.
func TestFleetDuplicatePrefix(t *testing.T) {
	a := newSDKDeployment(t)
	b := newSDKDeployment(t)
	if _, err := micropnp.NewFleet(a, b); err == nil {
		t.Fatal("NewFleet with duplicate prefixes must fail")
	}
	if _, err := micropnp.NewFleet(); err == nil {
		t.Fatal("NewFleet() with no deployments must fail")
	}
}

// TestFleetDiscoverAndStats fans a discovery out across the fleet and
// checks the aggregate surfaces: adverts concatenate in federation order,
// Things merges the per-deployment answers, Stats sums the counters.
func TestFleetDiscoverAndStats(t *testing.T) {
	f, things := newTestFleet(t, 3)
	adverts, err := f.Discover(context.Background(), micropnp.TMP36)
	if err != nil {
		t.Fatal(err)
	}
	if len(adverts) != 3 {
		t.Fatalf("fleet discovery found %d adverts, want 3", len(adverts))
	}
	for i, a := range adverts {
		if a.Thing != things[i].Addr() {
			t.Fatalf("advert %d from %v, want %v (federation order)", i, a.Thing, things[i].Addr())
		}
	}
	if got := f.Things(micropnp.TMP36); len(got) != 3 {
		t.Fatalf("fleet Things = %d, want 3", len(got))
	}
	total, sum := f.Stats(), memberStatsSum(f)
	if total != sum || total.Delivered == 0 {
		t.Fatalf("Stats() = %+v, want the per-deployment sum %+v (with deliveries)", total, sum)
	}
	if !f.Quiesce(time.Second) {
		t.Fatal("an idle fleet must quiesce")
	}
}

// TestFleetStatsZoned: on zoned members Fleet.Stats sums the sharded
// clock's telemetry with the network counters, field by field.
func TestFleetStatsZoned(t *testing.T) {
	f, things := newTestFleet(t, 3, micropnp.WithZones(4), micropnp.WithLossRate(0.1))
	for i, d := range f.Deployments() {
		for z := uint16(1); z < 4; z++ {
			if _, err := d.AddThing("zoned", micropnp.InZone(z), micropnp.WithPeripherals(micropnp.TMP36)); err != nil {
				t.Fatal(err)
			}
		}
		// A datagram to a node with no handler bound counts as NoHandler.
		a := things[i].Addr().As16()
		a[14], a[15] = 0xbe, 0xef
		peer, err := d.AddPeerNode(netip.AddrFrom16(a))
		if err != nil {
			t.Fatal(err)
		}
		peer.Send(peer.Addr(), []byte("x"))
		d.Run()
	}
	// Losses may cut the discovery short; only its traffic matters here.
	f.Discover(context.Background(), micropnp.TMP36)
	total, sum := f.Stats(), memberStatsSum(f)
	if total != sum {
		t.Fatalf("Stats() = %+v, want the per-deployment sum %+v", total, sum)
	}
	// Every counter but the causality violations (zero while the lookahead
	// is sound) is nonzero, so a field the sum skipped would show.
	v := reflect.ValueOf(total)
	for i := 0; i < v.NumField(); i++ {
		name := v.Type().Field(i).Name
		if zero := v.Field(i).Int() == 0; zero != (name == "ShardCausalityViolations") {
			t.Fatalf("Stats().%s = %d: %+v", name, v.Field(i).Int(), total)
		}
	}
}

// memberStatsSum adds up every field of the member deployments'
// NetworkStats, so a field Fleet.Stats forgets to sum shows as a mismatch.
func memberStatsSum(f *micropnp.Fleet) micropnp.NetworkStats {
	var sum micropnp.NetworkStats
	acc := reflect.ValueOf(&sum).Elem()
	for _, d := range f.Deployments() {
		s := reflect.ValueOf(d.NetworkStats())
		for i := 0; i < acc.NumField(); i++ {
			acc.Field(i).SetInt(acc.Field(i).Int() + s.Field(i).Int())
		}
	}
	return sum
}

// TestFleetAdvertHook registers one hook across the fleet and hot-plugs a
// peripheral in each member: every advert arrives on the unified flow,
// attributable to its deployment by address prefix.
func TestFleetAdvertHook(t *testing.T) {
	f, things := newTestFleet(t, 2)
	var mu sync.Mutex
	perDep := map[int]int{}
	f.AddAdvertHook(func(a micropnp.Advert) {
		mu.Lock()
		defer mu.Unlock()
		for i, th := range things {
			if f.DeploymentFor(a.Thing) == th.Deployment() {
				perDep[i]++
			}
		}
	})
	for _, th := range things {
		if err := th.PlugHIH4030(1); err != nil {
			t.Fatal(err)
		}
		th.Deployment().Run()
	}
	mu.Lock()
	defer mu.Unlock()
	for i := range things {
		if perDep[i] == 0 {
			t.Fatalf("unified advert hook saw no advert from deployment %d (got %v)", i, perDep)
		}
	}
}

// TestFleetSubscribe streams from a Thing in the second deployment through
// the fleet surface.
func TestFleetSubscribe(t *testing.T) {
	f, things := newTestFleet(t, 2)
	sub, err := f.Subscribe(context.Background(), things[1].Addr(), micropnp.TMP36, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	things[1].Deployment().RunFor(25 * time.Second)
	if len(sub.Readings()) == 0 {
		t.Fatal("fleet subscription delivered no readings")
	}
}

// fleetStorm issues concurrent reads from many goroutines across every
// deployment of a fleet — the -race leg for both clock modes.
func fleetStorm(t *testing.T, f *micropnp.Fleet, things []*micropnp.Thing) {
	t.Helper()
	ctx := context.Background()
	const goroutines, per = 8, 6
	var wg sync.WaitGroup
	errs := make(chan error, goroutines*per)
	for g := 0; g < goroutines; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < per; k++ {
				th := things[(g+k)%len(things)]
				if _, err := f.Read(ctx, th.Addr(), micropnp.TMP36); err != nil {
					errs <- err
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestFleetConcurrentVirtual exercises concurrent Fleet calls on virtual
// clocks: each member deployment's await driver election must cope with
// cross-deployment callers mixing freely.
func TestFleetConcurrentVirtual(t *testing.T) {
	f, things := newTestFleet(t, 3)
	fleetStorm(t, f, things)
}

// TestFleetConcurrentRealtime is the same storm against wall-clock members.
func TestFleetConcurrentRealtime(t *testing.T) {
	f, things := newTestFleet(t, 3,
		micropnp.WithRealTime(),
		micropnp.WithTimeScale(2000),
		micropnp.WithRequestTimeout(30*time.Minute))
	fleetStorm(t, f, things)
}
