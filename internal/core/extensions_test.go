package core

import (
	"testing"

	"micropnp/internal/bus"
	"micropnp/internal/client"
	"micropnp/internal/driver"
	"micropnp/internal/dsl"
	"micropnp/internal/hw"
	"micropnp/internal/thing"
)

// structuredRepo builds a repository holding the standard drivers plus two
// structured-namespace temperature sensors from different vendors (the
// TMP36 driver source reused under new identifiers).
func structuredRepo(t *testing.T) (*driver.Repository, hw.DeviceID, hw.DeviceID) {
	t.Helper()
	repo, err := driver.StandardRepository()
	if err != nil {
		t.Fatal(err)
	}
	src, err := driver.Source(driver.StandardDrivers[0]) // TMP36
	if err != nil {
		t.Fatal(err)
	}
	idA, err := hw.MakeStructuredID(0x0042, hw.ClassTemperature, 0x01)
	if err != nil {
		t.Fatal(err)
	}
	idB, err := hw.MakeStructuredID(0x0099, hw.ClassTemperature, 0x07)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []hw.DeviceID{idA, idB} {
		prog, err := dsl.Compile(src, uint32(id))
		if err != nil {
			t.Fatal(err)
		}
		code, _ := prog.Encode()
		if err := repo.Reserve(id, "structured-temp", hw.BusADC); err != nil {
			t.Fatal(err)
		}
		if err := repo.Upload(id, code, src); err != nil {
			t.Fatal(err)
		}
	}
	return repo, idA, idB
}

// TestClassDiscovery exercises the §9 hierarchical-typing extension: a
// client finds temperature sensors from two different vendors with one
// class-wildcard discovery.
func TestClassDiscovery(t *testing.T) {
	repo, idA, idB := structuredRepo(t)
	d, err := NewDeployment(DeploymentConfig{Repository: repo})
	if err != nil {
		t.Fatal(err)
	}
	t1, err := d.AddZonedThing("hall", 1)
	if err != nil {
		t.Fatal(err)
	}
	t2, err := d.AddZonedThing("lab", 2)
	if err != nil {
		t.Fatal(err)
	}
	cl, _ := d.AddClient()

	if err := d.PlugCustom(t1, 0, idA, hw.BusADC, &TMP36Device{Env: d.Env}); err != nil {
		t.Fatal(err)
	}
	if err := d.PlugCustom(t2, 0, idB, hw.BusADC, &TMP36Device{Env: d.Env}); err != nil {
		t.Fatal(err)
	}
	d.Run()

	var got []client.Advert
	cl.DiscoverClass(hw.ClassTemperature, 0, func(as []client.Advert) { got = as })
	d.Run()

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
	cl.Discover(idA, 0, func(as []client.Advert) { got = as })
	d.Run()
	for _, a := range got {
		if a.Thing == t2.Addr() {
			t.Fatal("exact discovery must not reach the other vendor")
		}
	}
}

// TestZoneDiscovery exercises the §9 location-aware multicast extension.
func TestZoneDiscovery(t *testing.T) {
	repo, idA, idB := structuredRepo(t)
	d, err := NewDeployment(DeploymentConfig{Repository: repo})
	if err != nil {
		t.Fatal(err)
	}
	hall, _ := d.AddZonedThing("hall", 1)
	lab, _ := d.AddZonedThing("lab", 2)
	cl, _ := d.AddClient()

	if err := d.PlugCustom(hall, 0, idA, hw.BusADC, &TMP36Device{Env: d.Env}); err != nil {
		t.Fatal(err)
	}
	if err := d.PlugCustom(lab, 0, idB, hw.BusADC, &TMP36Device{Env: d.Env}); err != nil {
		t.Fatal(err)
	}
	d.Run()

	// Zone-scoped all-peripherals discovery: only zone 1's thing answers.
	var got []client.Advert
	cl.DiscoverInZone(1, hw.DeviceIDAllPeripherals, 0, func(as []client.Advert) { got = as })
	d.Run()
	for _, a := range got {
		if a.Thing != hall.Addr() {
			t.Fatalf("zone 1 discovery answered by %v", a.Thing)
		}
	}
	if len(got) != 1 {
		t.Fatalf("zone discovery got %d solicited adverts, want 1", len(got))
	}

	// Zone + class discovery composes.
	cl.DiscoverInZone(2, hw.ClassWildcard(hw.ClassTemperature), 0, func(as []client.Advert) { got = as })
	d.Run()
	for _, a := range got {
		if a.Thing != lab.Addr() {
			t.Fatalf("zone 2 class discovery answered by %v", a.Thing)
		}
	}
	if len(got) != 1 {
		t.Fatalf("zone+class discovery got %d adverts, want 1", len(got))
	}
}

// TestLossyDriverInstallRetries exercises the retransmission extension: with
// heavy frame loss the install request or upload can vanish; the Thing must
// retry and eventually complete the plug-in.
func TestLossyDriverInstallRetries(t *testing.T) {
	completed := false
	for seed := int64(1); seed <= 5 && !completed; seed++ {
		d, err := NewDeployment(DeploymentConfig{LossRate: 0.35, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		th, err := d.AddThing("lossy")
		if err != nil {
			t.Fatal(err)
		}
		if err := d.PlugTMP36(th, 0); err != nil {
			t.Fatal(err)
		}
		d.Run()
		if len(th.Traces()) == 1 && th.Traces()[0].Done {
			completed = true
			// With retries, the request phase may exceed the lossless one.
			if th.Runtime(driver.IDTMP36) == nil {
				t.Fatal("driver must be active after a completed trace")
			}
		}
	}
	if !completed {
		t.Fatal("no plug-in completed under 35% loss across 5 seeds; retransmission is broken")
	}
}

// TestTotalLossNeverCompletes documents the bound: with 100% loss the Thing
// retries MaxDriverRequests times and gives up cleanly (no hang, no crash).
func TestTotalLossNeverCompletes(t *testing.T) {
	d, err := NewDeployment(DeploymentConfig{LossRate: 1.0})
	if err != nil {
		t.Fatal(err)
	}
	th, err := d.AddThing("void")
	if err != nil {
		t.Fatal(err)
	}
	if err := d.PlugTMP36(th, 0); err != nil {
		t.Fatal(err)
	}
	steps := d.Network.RunUntilIdle(0)
	if steps >= 1_000_000 {
		t.Fatal("network must go idle after bounded retries")
	}
	if th.Traces()[0].Done {
		t.Fatal("plug-in cannot complete with 100% loss")
	}
	if th.Runtime(driver.IDTMP36) != nil {
		t.Fatal("no driver can be active")
	}
	_ = thing.MaxDriverRequests
	_ = bus.NewEnvironment
}
