// White-box deployment tests: the ones that look past the public surface at
// driver runtimes and images, individual manager instances, custom driver
// repositories and zone-placed clients.
package micropnp

import (
	"context"
	"errors"
	"fmt"
	"net/netip"
	"os"
	"strings"
	"testing"

	"micropnp/internal/bus"
	"micropnp/internal/driver"
	"micropnp/internal/dsl"
	"micropnp/internal/hw"
	"micropnp/internal/netsim"
	"micropnp/internal/proto"
)

func newTestDeployment(t *testing.T, opts ...Option) *Deployment {
	t.Helper()
	d, err := NewDeployment(opts...)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestUnplugTearsDown(t *testing.T) {
	d := newTestDeployment(t)
	th, _ := d.AddThing("node")
	cl, _ := d.AddClient()
	if err := th.PlugTMP36(0); err != nil {
		t.Fatal(err)
	}
	d.Run()
	if th.th.Runtime(driver.IDTMP36) == nil {
		t.Fatal("driver must be active")
	}

	fired := 0
	cl.AddAdvertHook(func(Advert) { fired++ })
	if err := th.Unplug(0); err != nil {
		t.Fatal(err)
	}
	d.Run()
	if th.th.Runtime(driver.IDTMP36) != nil {
		t.Fatal("driver must be stopped after unplug")
	}
	// Disconnection triggers an advertisement update (now empty), and the
	// empty advert carries no peripherals, so no Advert fires.
	if fired != 0 {
		t.Fatalf("unexpected adverts after unplug: %d", fired)
	}
	// Reads now surface the absent-peripheral error.
	if _, err := cl.Read(context.Background(), th.Addr(), TMP36); !errors.Is(err, ErrNoPeripheral) {
		t.Fatalf("read after unplug = %v, want ErrNoPeripheral", err)
	}
}

// TestPlugOntoBusyChannelKeepsPeripheral: a plug into a busy channel is
// refused before the Thing touches the channel, so the peripheral already
// there keeps its slot: the next discovery still advertises it with its own
// bus kind, and an unplug detaches its own device model.
func TestPlugOntoBusyChannelKeepsPeripheral(t *testing.T) {
	d := newTestDeployment(t)
	th, _ := d.AddThing("node")
	cl, _ := d.AddClient()
	// PlugTMP36's own path, keeping a handle on the device model.
	tmp36 := &busDevice{analog: &bus.TMP36{Env: d.env}}
	if err := th.plugModel(0, driver.IDTMP36, hw.BusADC, tmp36); err != nil {
		t.Fatal(err)
	}
	d.Run()
	if err := th.PlugBMP180(0); err == nil || !strings.Contains(err.Error(), "already occupied") {
		t.Fatalf("PlugBMP180 onto the TMP36's channel = %v, want the occupied error", err)
	}
	d.Run()
	if !tmp36.attached {
		t.Fatal("the refused plug detached the TMP36 model")
	}

	// A scripted peer's discovery gets the Thing's advert off the wire.
	peer, err := d.AddPeerNode(netip.MustParseAddr("2001:db8::beef"))
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	peer.Bind(func(msg netsim.Message) {
		m, err := proto.Decode(msg.Payload)
		if err != nil || m.Type != proto.MsgSolicitedAdvert {
			return
		}
		for _, p := range m.Peripherals {
			for _, tlv := range p.TLVs {
				if tlv.Type == proto.TLVBusKind && len(tlv.Value) == 1 {
					got = append(got, fmt.Sprintf("%v/%v", p.ID, hw.BusKind(tlv.Value[0])))
				}
			}
		}
	})
	b, err := (&proto.Message{Type: proto.MsgDiscovery, Seq: 7}).Encode()
	if err != nil {
		t.Fatal(err)
	}
	peer.Send(netsim.MulticastAddr(d.prefix, driver.IDTMP36), b)
	d.Run()
	if want := fmt.Sprintf("%v/%v", driver.IDTMP36, hw.BusADC); len(got) != 1 || got[0] != want {
		t.Fatalf("advertised peripherals %v, want [%s]", got, want)
	}
	ads, err := cl.Discover(context.Background(), TMP36)
	if err != nil || len(ads) != 1 || ads[0].Channel != 0 {
		t.Fatalf("discover TMP36 = %+v, %v; want the Thing's channel 0", ads, err)
	}

	if err := th.Unplug(0); err != nil {
		t.Fatal(err)
	}
	d.Run()
	if tmp36.attached {
		t.Fatal("unplug left the TMP36 model attached")
	}
}

func TestManagerDriverManagement(t *testing.T) {
	d := newTestDeployment(t)
	th, _ := d.AddThing("node")
	if err := th.PlugTMP36(0); err != nil {
		t.Fatal(err)
	}
	d.Run()

	// Driver discovery (messages 6/7).
	ctx := context.Background()
	discovered, err := d.DiscoverDrivers(ctx, th)
	if err != nil {
		t.Fatal(err)
	}
	if len(discovered) != 1 || discovered[0] != TMP36 {
		t.Fatalf("discovered = %v", discovered)
	}

	// Driver removal (messages 8/9).
	if err := d.RemoveDriver(ctx, th, TMP36); err != nil {
		t.Fatalf("removal must be acknowledged: %v", err)
	}
	if th.th.Runtime(driver.IDTMP36) != nil {
		t.Fatal("runtime must stop when its driver is removed")
	}

	// Removing again is rejected.
	if err := d.RemoveDriver(ctx, th, TMP36); !errors.Is(err, ErrRemovalRejected) {
		t.Fatalf("second removal = %v, want ErrRemovalRejected", err)
	}
}

// TestThingsShareDriverImages plugs the same peripheral types into Things
// made by every placement form: each type's runtimes all run one shared
// image, and the deployment's table holds one image per distinct driver.
func TestThingsShareDriverImages(t *testing.T) {
	d := newTestDeployment(t)
	var things []*Thing
	for i := 0; i < 6; i++ {
		var th *Thing
		var err error
		switch i % 3 {
		case 0:
			th, err = d.AddThing("t")
		case 1:
			th, err = d.AddThing("t", InZone(1))
		default:
			th, err = d.AddZonedThing("t", 2)
		}
		if err != nil {
			t.Fatal(err)
		}
		if err := th.PlugTMP36(0); err != nil {
			t.Fatal(err)
		}
		if i < 2 {
			if err := th.PlugHIH4030(1); err != nil {
				t.Fatal(err)
			}
		}
		things = append(things, th)
	}
	d.Run()

	image := func(th *Thing, id hw.DeviceID) any {
		rt := th.th.Runtime(id)
		if rt == nil {
			t.Fatalf("%v: no %v runtime", th.Addr(), id)
		}
		return rt.Machine().Image()
	}
	tmp36, hih := image(things[0], driver.IDTMP36), image(things[0], driver.IDHIH4030)
	if tmp36 == hih {
		t.Fatal("two drivers share one image")
	}
	for i, th := range things {
		if image(th, driver.IDTMP36) != tmp36 {
			t.Fatalf("thing %d runs its own TMP36 image", i)
		}
		if i < 2 && image(th, driver.IDHIH4030) != hih {
			t.Fatalf("thing %d runs its own HIH-4030 image", i)
		}
	}
	if n := d.images.Len(); n != 2 {
		t.Fatalf("the image table holds %d images, want 2", n)
	}
}

// TestAnycastReroutesAfterNearestDies pins which instance serves: the
// nearest manager takes the install uploads until it crashes, then the
// anycast routes new installs to the survivor — observable here through the
// per-instance upload counters the public SDK only exposes summed.
func TestAnycastReroutesAfterNearestDies(t *testing.T) {
	d := newTestDeployment(t, WithManagers(2))
	managers := d.managerList()
	if len(managers) != 2 {
		t.Fatalf("managerList() = %d instances, want 2", len(managers))
	}

	// Things attach under the border manager: instance 0 is one hop away,
	// instance 1 (a sibling subtree) two — the anycast must pick 0.
	th1, err := d.AddThing("near")
	if err != nil {
		t.Fatal(err)
	}
	if err := th1.PlugTMP36(0); err != nil {
		t.Fatal(err)
	}
	d.Run()
	if u0, u1 := managers[0].Uploads(), managers[1].Uploads(); u0 != 1 || u1 != 0 {
		t.Fatalf("pre-failure uploads = (%d, %d), want (1, 0): nearest instance must serve", u0, u1)
	}

	if err := d.FailManager(0); err != nil {
		t.Fatal(err)
	}
	if !managers[0].Failed() || managers[1].Failed() {
		t.Fatal("Failed() flags wrong after FailManager(0)")
	}
	if d.mgmt() != managers[1] {
		t.Fatal("mgmt() must return the survivor")
	}

	th2, err := d.AddThing("post")
	if err != nil {
		t.Fatal(err)
	}
	if err := th2.PlugTMP36(0); err != nil {
		t.Fatal(err)
	}
	d.Run()
	if u0, u1 := managers[0].Uploads(), managers[1].Uploads(); u0 != 1 || u1 != 1 {
		t.Fatalf("post-failure uploads = (%d, %d), want (1, 1): anycast must re-route to the survivor", u0, u1)
	}
	if got := d.ManagerUploads(); got != 2 {
		t.Fatalf("ManagerUploads() = %d, want 2", got)
	}
}

// TestSitePrefixes pins the address plan federation routes by: site 0 keeps
// the legacy addresses bit-for-bit, site k gets its own /48.
func TestSitePrefixes(t *testing.T) {
	d0 := newTestDeployment(t)
	if got := d0.border.Node().Addr().String(); got != "2001:db8::1" {
		t.Fatalf("site-0 manager at %v, want 2001:db8::1", got)
	}
	d1 := newTestDeployment(t, WithSite(1))
	if got := d1.border.Node().Addr().String(); got != "2001:db8:1::1" {
		t.Fatalf("site-1 manager at %v, want 2001:db8:1::1", got)
	}
	if d0.prefix == d1.prefix {
		t.Fatal("sites 0 and 1 share a network prefix")
	}
	th, err := d1.AddThing("t")
	if err != nil {
		t.Fatal(err)
	}
	if err := th.PlugTMP36(0); err != nil {
		t.Fatal(err)
	}
	d1.Run()
	if ids := th.InstalledDrivers(); len(ids) != 1 || ids[0] != TMP36 {
		t.Fatalf("installed %v on a non-zero site, want [TMP36]", ids)
	}
}

// TestExtendedDriversAreStructured documents the namespace allocation of the
// extension peripherals.
func TestExtendedDriversAreStructured(t *testing.T) {
	s := driver.IDADXL345.Structured()
	if s.Class != hw.ClassAccelerometer || s.Vendor == 0 {
		t.Fatalf("ADXL345 structured ID = %+v", s)
	}
	s = driver.IDRelay.Structured()
	if s.Class != hw.ClassActuatorRelay || s.Vendor == 0 {
		t.Fatalf("relay structured ID = %+v", s)
	}
}

// addStructuredSensors adds two structured-namespace temperature sensors
// from different vendors (the TMP36 driver source reused under new
// identifiers) to the deployment's driver repository.
func addStructuredSensors(t *testing.T, d *Deployment) (idA, idB hw.DeviceID) {
	t.Helper()
	src, err := driver.Source(driver.StandardDrivers[0]) // TMP36
	if err != nil {
		t.Fatal(err)
	}
	if idA, err = hw.MakeStructuredID(0x0042, hw.ClassTemperature, 0x01); err != nil {
		t.Fatal(err)
	}
	if idB, err = hw.MakeStructuredID(0x0099, hw.ClassTemperature, 0x07); err != nil {
		t.Fatal(err)
	}
	for _, id := range []hw.DeviceID{idA, idB} {
		prog, err := dsl.Compile(src, uint32(id))
		if err != nil {
			t.Fatal(err)
		}
		code, _ := prog.Encode()
		if err := d.repo.Reserve(id, "structured-temp", hw.BusADC); err != nil {
			t.Fatal(err)
		}
		if err := d.repo.Upload(id, code, src); err != nil {
			t.Fatal(err)
		}
	}
	return idA, idB
}

// plugTMP36As plugs a TMP36 sensor model identifying as id.
func plugTMP36As(t *testing.T, th *Thing, id hw.DeviceID) {
	t.Helper()
	if err := th.plugModel(0, id, hw.BusADC, &busDevice{analog: &bus.TMP36{Env: th.d.env}}); err != nil {
		t.Fatal(err)
	}
}

// TestClassDiscovery exercises the §9 hierarchical-typing extension: a
// client finds temperature sensors from two different vendors with one
// class-wildcard discovery.
func TestClassDiscovery(t *testing.T) {
	d := newTestDeployment(t)
	idA, idB := addStructuredSensors(t, d)
	t1, err := d.AddZonedThing("hall", 1)
	if err != nil {
		t.Fatal(err)
	}
	t2, err := d.AddZonedThing("lab", 2)
	if err != nil {
		t.Fatal(err)
	}
	cl, _ := d.AddClient()
	plugTMP36As(t, t1, idA)
	plugTMP36As(t, t2, idB)
	d.Run()

	ctx := context.Background()
	got, err := cl.DiscoverClass(ctx, ClassTemperature)
	if err != nil {
		t.Fatal(err)
	}
	var fromA, fromB bool
	for _, a := range got {
		switch a.Thing {
		case t1.Addr():
			fromA = true
		case t2.Addr():
			fromB = true
		}
	}
	if !fromA || !fromB {
		t.Fatalf("class discovery must reach both vendors: A=%v B=%v", fromA, fromB)
	}

	// A vendor-exact discovery still only reaches that vendor's sensor.
	if got, err = cl.Discover(ctx, DeviceID(idA)); err != nil {
		t.Fatal(err)
	}
	for _, a := range got {
		if a.Thing == t2.Addr() {
			t.Fatal("exact discovery must not reach the other vendor")
		}
	}
}

// TestZoneDiscovery exercises the §9 location-aware multicast extension.
func TestZoneDiscovery(t *testing.T) {
	d := newTestDeployment(t)
	idA, idB := addStructuredSensors(t, d)
	hall, _ := d.AddZonedThing("hall", 1)
	lab, _ := d.AddZonedThing("lab", 2)
	cl, _ := d.AddClient()
	plugTMP36As(t, hall, idA)
	plugTMP36As(t, lab, idB)
	d.Run()

	// Zone-scoped all-peripherals discovery: only zone 1's thing answers.
	ctx := context.Background()
	got, err := cl.DiscoverInZone(ctx, 1, AllPeripherals)
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range got {
		if a.Thing != hall.Addr() {
			t.Fatalf("zone 1 discovery answered by %v", a.Thing)
		}
	}
	if len(got) != 1 {
		t.Fatalf("zone discovery got %d solicited adverts, want 1", len(got))
	}

	// Zone + class discovery composes.
	if got, err = cl.DiscoverInZone(ctx, 2, DeviceID(hw.ClassWildcard(hw.ClassTemperature))); err != nil {
		t.Fatal(err)
	}
	for _, a := range got {
		if a.Thing != lab.Addr() {
			t.Fatalf("zone 2 class discovery answered by %v", a.Thing)
		}
	}
	if len(got) != 1 {
		t.Fatalf("zone+class discovery got %d adverts, want 1", len(got))
	}
}

// BenchmarkScaleZonedDiscovery is the full-protocol parallel-speedup pair:
// the identical zone-partitioned multicast workload — every zone's client
// discovering its own zone-scoped group, fan-out and replies staying
// intra-zone — run once on the parallel sharded schedule (clock=sharded) and
// once on the sequential single-loop schedule (clock=single) of the same
// zoned topology. The two schedules execute the same events in the same
// order (bit-determinism), so the ns/op ratio single/sharded is a pure
// measure of parallel speedup. It carries protocol work outside the lanes,
// so it is recorded, not gated: the CI scale-100k job runs the 50,000-Thing
// tier (MICROPNP_SCALE_100K=1) into its artifact. The default size keeps
// local runs quick. Each zone's client sits in its zone's address space, a
// placement the public surface does not offer, so the benchmark lives here.
func BenchmarkScaleZonedDiscovery(b *testing.B) {
	n := 2000
	if os.Getenv("MICROPNP_SCALE_100K") != "" {
		n = 50000
	}
	const zones = 16
	for _, mode := range []struct {
		name    string
		workers int
	}{
		{"sharded", 0},
		{"single", 1},
	} {
		b.Run(fmt.Sprintf("things=%d/clock=%s", n, mode.name), func(b *testing.B) {
			d, err := NewDeployment(WithZones(zones), WithShardWorkers(mode.workers))
			if err != nil {
				b.Fatal(err)
			}
			defer d.Close()
			// Location zones are 1-based: zone 0 in the multicast schema is
			// the unscoped (global) group form.
			perZone := make([]int, zones+1)
			for i := 0; i < n; i++ {
				zone := 1 + i%zones
				th, err := d.AddZonedThing(fmt.Sprintf("z%dn%d", zone, i), uint16(zone))
				if err != nil {
					b.Fatal(err)
				}
				if err := th.PlugTMP36(0); err != nil {
					b.Fatal(err)
				}
				perZone[zone]++
			}
			clients := make([]*Client, zones+1)
			for z := 1; z <= zones; z++ {
				if clients[z], err = d.newClient(uint16(z), nil); err != nil {
					b.Fatal(err)
				}
			}
			d.Run()
			ctx := context.Background()
			got := make([]int, zones+1)
			strands := make([]func(*Strand), zones)
			for z := 1; z <= zones; z++ {
				strands[z-1] = func(*Strand) {
					ads, _ := clients[z].DiscoverInZone(ctx, uint16(z), TMP36)
					got[z] = len(ads)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				// Every zone's discovery in flight at once.
				d.Conduct(strands...)
				for z := 1; z <= zones; z++ {
					if got[z] != perZone[z] {
						b.Fatalf("zone %d: discovered %d, want %d", z, got[z], perZone[z])
					}
				}
			}
		})
	}
}
