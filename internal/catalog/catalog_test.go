package catalog

import (
	"context"
	"net/netip"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"micropnp"
)

// fakeClock is a manually-advanced virtual clock for pure-unit tests.
type fakeClock struct{ now atomic.Int64 }

func (f *fakeClock) Now() time.Duration      { return time.Duration(f.now.Load()) }
func (f *fakeClock) Advance(d time.Duration) { f.now.Add(int64(d)) }
func (f *fakeClock) Set(d time.Duration)     { f.now.Store(int64(d)) }

func mustCatalog(t *testing.T, cfg Config) *Catalog {
	t.Helper()
	c, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return c
}

func addr(i int) netip.Addr {
	a := netip.MustParseAddr("fd00::0")
	b := a.As16()
	b[14] = byte(i >> 8)
	b[15] = byte(i)
	return netip.AddrFrom16(b)
}

func advertAt(thing netip.Addr, dev micropnp.DeviceID, at time.Duration) micropnp.Advert {
	return micropnp.Advert{Thing: thing, Device: dev, Name: "t", Units: "u", Channel: 0, At: at}
}

func TestNewRequiresClock(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("New accepted a nil clock")
	}
}

func TestObserveRefreshExtendsLease(t *testing.T) {
	clk := &fakeClock{}
	c := mustCatalog(t, Config{TTL: 10 * time.Second, Now: clk.Now})

	th := addr(1)
	c.Observe(advertAt(th, micropnp.TMP36, clk.Now()))
	e, ok := c.Get(th, micropnp.TMP36)
	if !ok {
		t.Fatal("entry missing after Observe")
	}
	if e.Expires != 10*time.Second {
		t.Fatalf("Expires = %v, want 10s", e.Expires)
	}

	// Refresh at t=8s: the lease must extend to 18s, so a sweep at t=12s
	// (past the original deadline) keeps the entry.
	clk.Set(8 * time.Second)
	c.Observe(advertAt(th, micropnp.TMP36, clk.Now()))
	clk.Set(12 * time.Second)
	if n := c.Sweep(); n != 0 {
		t.Fatalf("sweep dropped %d entries despite refresh", n)
	}
	if _, ok := c.Get(th, micropnp.TMP36); !ok {
		t.Fatal("refreshed entry expired at the original deadline")
	}

	// Without a further refresh the entry dies at 18s.
	clk.Set(18 * time.Second)
	if n := c.Sweep(); n != 1 {
		t.Fatalf("sweep dropped %d entries, want 1", n)
	}
	if _, ok := c.Get(th, micropnp.TMP36); ok {
		t.Fatal("entry survived past its extended lease")
	}
	st := c.Stats()
	if st.Expired != 1 || st.Observed != 2 {
		t.Fatalf("stats = %+v, want Expired=1 Observed=2", st)
	}
}

func TestObservePreservesMetadataOnTerseRefresh(t *testing.T) {
	clk := &fakeClock{}
	c := mustCatalog(t, Config{TTL: time.Minute, Now: clk.Now})
	th := addr(1)
	c.Observe(micropnp.Advert{Thing: th, Device: micropnp.BMP180, Name: "lab", Units: "Pa", Channel: 3})
	// A terse advert (no name/units, channel unset) must not erase metadata.
	c.Observe(micropnp.Advert{Thing: th, Device: micropnp.BMP180, Channel: -1})
	e, _ := c.Get(th, micropnp.BMP180)
	if e.Name != "lab" || e.Units != "Pa" || e.Channel != 3 {
		t.Fatalf("terse refresh erased metadata: %+v", e)
	}
}

func TestListFilterAndPaging(t *testing.T) {
	clk := &fakeClock{}
	c := mustCatalog(t, Config{TTL: time.Minute, Now: clk.Now})
	for i := 0; i < 5; i++ {
		c.Observe(advertAt(addr(i), micropnp.TMP36, 0))
		c.Observe(advertAt(addr(i), micropnp.BMP180, 0))
	}

	all, total := c.List(Filter{}, 0, 0)
	if total != 10 || len(all) != 10 {
		t.Fatalf("List all: total=%d len=%d, want 10/10", total, len(all))
	}
	// Deterministic (thing, device) order.
	for i := 1; i < len(all); i++ {
		a, b := all[i-1], all[i]
		if b.Thing.Less(a.Thing) || (a.Thing == b.Thing && b.Device < a.Device) {
			t.Fatalf("listing out of order at %d: %v/%v before %v/%v", i, a.Thing, a.Device, b.Thing, b.Device)
		}
	}

	// Paging covers everything exactly once.
	var paged []Entry
	for off := 0; ; off += 3 {
		page, tot := c.List(Filter{}, off, 3)
		if tot != 10 {
			t.Fatalf("paged total = %d, want 10", tot)
		}
		if len(page) == 0 {
			break
		}
		paged = append(paged, page...)
	}
	if len(paged) != 10 {
		t.Fatalf("pages covered %d entries, want 10", len(paged))
	}
	for i := range paged {
		if paged[i].Thing != all[i].Thing || paged[i].Device != all[i].Device {
			t.Fatalf("page entry %d = %v/%v, want %v/%v", i, paged[i].Thing, paged[i].Device, all[i].Thing, all[i].Device)
		}
	}

	// Device filter.
	tmp, total := c.List(Filter{Device: micropnp.TMP36}, 0, 0)
	if total != 5 || len(tmp) != 5 {
		t.Fatalf("device filter: total=%d len=%d, want 5/5", total, len(tmp))
	}
	for _, e := range tmp {
		if e.Device != micropnp.TMP36 {
			t.Fatalf("device filter leaked %v", e.Device)
		}
	}
	// Thing filter.
	one, total := c.List(Filter{Thing: addr(2)}, 0, 0)
	if total != 2 || len(one) != 2 {
		t.Fatalf("thing filter: total=%d len=%d, want 2/2", total, len(one))
	}
	// AllPeripherals matches everything.
	if _, tot := c.List(Filter{Device: micropnp.AllPeripherals}, 0, 0); tot != 10 {
		t.Fatalf("AllPeripherals filter total = %d, want 10", tot)
	}
	// Offset past the end.
	if page, tot := c.List(Filter{}, 100, 3); tot != 10 || page != nil {
		t.Fatalf("offset past end: total=%d page=%v", tot, page)
	}
}

// TestPagingStableUnderChurn drives concurrent refresh, sweep and expiry
// while readers page through the catalog, asserting every walk is ordered
// and duplicate-free. The key set only ever shrinks once the readers start
// (refreshes update in place, expiries delete) — the regime where List's
// cross-page walk guarantee holds; inserts of new keys sorting before a
// walk's cursor would legitimately repeat entries, so registration churn
// is exercised by the lifecycle tests instead.
func TestPagingStableUnderChurn(t *testing.T) {
	clk := &fakeClock{}
	c := mustCatalog(t, Config{TTL: 5 * time.Second, Now: clk.Now})
	stop := c.Start(time.Millisecond)
	defer stop()

	// Stable population: 64 Things × 2 peripherals, refreshed forever.
	for i := 0; i < 64; i++ {
		c.Observe(advertAt(addr(i), micropnp.TMP36, clk.Now()))
		c.Observe(advertAt(addr(i), micropnp.Relay, clk.Now()))
	}
	// Ephemeral tail: registered once, never refreshed — the sweeper
	// deletes them mid-walk once the writer's clock passes the TTL.
	for i := 64; i < 80; i++ {
		c.Observe(advertAt(addr(i), micropnp.TMP36, clk.Now()))
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var wg sync.WaitGroup

	// Writer: refreshes the stable population in a rolling window while the
	// clock marches on. One full pass takes 64 × 50ms = 3.2s of the 5s TTL,
	// so stable entries never expire and no key is ever (re-)inserted. The
	// writer finishes at least one full pass however early the readers stop,
	// so no stable entry still carries its t=0 registration when the final
	// nudge past the TTL lands.
	wg.Add(1)
	go func() {
		defer wg.Done()
		i := 0
		for ctx.Err() == nil || i < 64 {
			i++
			clk.Advance(50 * time.Millisecond)
			now := clk.Now()
			c.Observe(advertAt(addr(i%64), micropnp.TMP36, now))
			c.Observe(advertAt(addr(i%64), micropnp.Relay, now))
		}
	}()

	// Readers: page through concurrently and check order + uniqueness.
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				seen := map[Key]bool{}
				var prev *Entry
				for off := 0; ; off += 7 {
					page, _ := c.List(Filter{}, off, 7)
					if len(page) == 0 {
						break
					}
					for i := range page {
						e := page[i]
						k := Key{Thing: e.Thing, Device: e.Device}
						if seen[k] {
							t.Errorf("duplicate entry %v/%v in paged walk", e.Thing, e.Device)
							return
						}
						seen[k] = true
						if prev != nil {
							if e.Thing.Less(prev.Thing) || (e.Thing == prev.Thing && e.Device <= prev.Device) {
								t.Errorf("paged walk out of order: %v/%v after %v/%v", e.Thing, e.Device, prev.Thing, prev.Device)
								return
							}
						}
						p := e
						prev = &p
					}
				}
				c.Get(addr(3), micropnp.TMP36)
				c.Thing(addr(3))
				c.Stats()
			}
		}()
	}

	time.Sleep(150 * time.Millisecond)
	cancel()
	wg.Wait()
	if t.Failed() {
		return
	}
	if st := c.Stats(); st.Sweeps == 0 {
		t.Fatal("sweeper never ran")
	}
	// The ephemeral tail is gone once the clock passes its TTL (push it
	// there if the writer stopped short — the stable entries were all
	// refreshed within the last 3.2s, so they survive the nudge), and the
	// stable population survived the whole run.
	if clk.Now() <= 5*time.Second {
		clk.Advance(5*time.Second + time.Millisecond - clk.Now())
	}
	c.Sweep()
	if _, total := c.List(Filter{}, 0, 0); total != 128 {
		t.Fatalf("post-churn total = %d, want the 128 stable entries", total)
	}
	if _, ok := c.Get(addr(70), micropnp.TMP36); ok {
		t.Fatal("ephemeral entry survived its TTL")
	}
}

// newVirtualRig boots a virtual deployment with nThings Things (TMP36 each),
// a client whose adverts feed the catalog, and returns everything needed to
// drive churn.
func newVirtualRig(t *testing.T, nThings int, ttl time.Duration) (*micropnp.Deployment, *micropnp.Client, []*micropnp.Thing, *Catalog) {
	t.Helper()
	d, err := micropnp.NewDeployment()
	if err != nil {
		t.Fatalf("NewDeployment: %v", err)
	}
	t.Cleanup(d.Close)
	cl, err := d.AddClient()
	if err != nil {
		t.Fatalf("AddClient: %v", err)
	}
	cat := mustCatalog(t, Config{TTL: ttl, Now: d.Now})
	cl.AddAdvertHook(cat.Observe)
	things := make([]*micropnp.Thing, nThings)
	for i := range things {
		th, err := d.AddThing("t")
		if err != nil {
			t.Fatalf("AddThing: %v", err)
		}
		if err := th.PlugTMP36(0); err != nil {
			t.Fatalf("PlugTMP36: %v", err)
		}
		things[i] = th
	}
	d.Run() // let plug-in sequences (and their adverts) play out
	return d, cl, things, cat
}

// TestLeaseLifecycleVirtual exercises the full gateway-shaped lease flow on
// the virtual clock: plug-in adverts populate the catalog, periodic
// discoveries refresh leases, and an unplugged peripheral disappears within
// one TTL+sweep because discovery replies stop covering it.
func TestLeaseLifecycleVirtual(t *testing.T) {
	const ttl = 30 * time.Second
	d, cl, things, cat := newVirtualRig(t, 3, ttl)

	if got := cat.Size(); got != 3 {
		t.Fatalf("catalog size after plug-in = %d, want 3", got)
	}

	refresh := func() {
		if _, err := cl.Discover(context.Background(), micropnp.AllPeripherals); err != nil {
			t.Fatalf("Discover: %v", err)
		}
	}

	// Refresh rounds spanning several TTLs: nothing may expire while every
	// peripheral keeps answering discoveries.
	for i := 0; i < 8; i++ {
		d.RunFor(10 * time.Second)
		refresh()
		if n := cat.Sweep(); n != 0 {
			t.Fatalf("round %d: sweep dropped %d live entries", i, n)
		}
	}
	if got := cat.Size(); got != 3 {
		t.Fatalf("catalog size after refresh rounds = %d, want 3", got)
	}

	// Hot-unplug: the peripheral stops appearing in discovery replies, so
	// its lease runs out within one TTL and the next sweep removes it.
	unplugged := things[0].Addr()
	if err := things[0].Unplug(0); err != nil {
		t.Fatalf("Unplug: %v", err)
	}
	deadline, ok := cat.Get(unplugged, micropnp.TMP36)
	if !ok {
		t.Fatal("unplugged entry vanished before its lease ran out")
	}
	for d.Now() <= deadline.Expires {
		d.RunFor(10 * time.Second)
		refresh()
	}
	if n := cat.Sweep(); n != 1 {
		t.Fatalf("sweep after unplug dropped %d entries, want 1", n)
	}
	if _, ok := cat.Get(unplugged, micropnp.TMP36); ok {
		t.Fatal("unplugged peripheral still catalogued after TTL+sweep")
	}
	if got := cat.Size(); got != 2 {
		t.Fatalf("catalog size after unplug expiry = %d, want 2", got)
	}

	// Hot-plug back in: the plug-in advert re-registers it without any
	// discovery round.
	if err := things[0].PlugTMP36(0); err != nil {
		t.Fatalf("re-plug: %v", err)
	}
	d.Run()
	if _, ok := cat.Get(unplugged, micropnp.TMP36); !ok {
		t.Fatal("re-plugged peripheral not catalogued from its plug-in advert")
	}
}

// TestSweepGoroutineVirtual runs the wall-ticker sweeper against a virtual
// deployment under -race: the sweep goroutine races with advert deliveries
// (Observe) and with readers.
func TestSweepGoroutineVirtual(t *testing.T) {
	const ttl = 20 * time.Second
	d, cl, _, cat := newVirtualRig(t, 4, ttl)
	stop := cat.Start(2 * time.Millisecond)
	defer stop()

	for i := 0; i < 40; i++ {
		d.RunFor(5 * time.Second)
		if _, err := cl.Discover(context.Background(), micropnp.AllPeripherals); err != nil {
			t.Fatalf("Discover: %v", err)
		}
		cat.List(Filter{}, 0, 10)
		cat.Stats()
	}
	stop()
	if got := cat.Size(); got != 4 {
		t.Fatalf("catalog size = %d, want 4 (refreshed throughout)", got)
	}
}

// TestSweepGoroutineRealtime is the realtime-mode counterpart: adverts are
// delivered from pool workers while the sweeper and readers run, and expiry
// happens on the scaled wall clock with no manual Sweep calls.
func TestSweepGoroutineRealtime(t *testing.T) {
	d, err := micropnp.NewDeployment(micropnp.WithRealTime(), micropnp.WithTimeScale(200))
	if err != nil {
		t.Fatalf("NewDeployment: %v", err)
	}
	defer d.Close()
	cl, err := d.AddClient()
	if err != nil {
		t.Fatalf("AddClient: %v", err)
	}
	// 20 s virtual TTL = 100 ms of wall time at scale 200 — several times
	// one discovery round (the default request window), so refreshes land
	// well inside the lease.
	cat := mustCatalog(t, Config{TTL: 20 * time.Second, Now: d.Now})
	cl.AddAdvertHook(cat.Observe)
	stop := cat.Start(2 * time.Millisecond)
	defer stop()

	th, err := d.AddThing("rt")
	if err != nil {
		t.Fatalf("AddThing: %v", err)
	}
	if err := th.PlugTMP36(0); err != nil {
		t.Fatalf("PlugTMP36: %v", err)
	}

	ctx := context.Background()
	// Keep the lease alive with discovery rounds; readers race the sweeper.
	deadline := time.Now().Add(5 * time.Second)
	for i := 0; i < 20; i++ {
		if _, err := cl.Discover(ctx, micropnp.AllPeripherals); err != nil {
			t.Fatalf("Discover: %v", err)
		}
		cat.List(Filter{}, 0, 10)
		cat.Get(th.Addr(), micropnp.TMP36)
		if time.Now().After(deadline) {
			break
		}
	}
	if _, ok := cat.Get(th.Addr(), micropnp.TMP36); !ok {
		t.Fatal("entry expired while discovery rounds kept refreshing it")
	}

	// Stop refreshing: the sweeper alone must collect the entry within a
	// few TTLs of (scaled) wall time.
	expireBy := time.Now().Add(5 * time.Second)
	for cat.Size() != 0 {
		if time.Now().After(expireBy) {
			t.Fatalf("entry never expired; size=%d stats=%+v now=%v", cat.Size(), cat.Stats(), d.Now())
		}
		time.Sleep(time.Millisecond)
	}
	if st := cat.Stats(); st.Expired == 0 {
		t.Fatalf("stats record no expiries: %+v", st)
	}
}
