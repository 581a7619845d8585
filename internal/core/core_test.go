package core

import (
	"errors"
	"testing"
	"time"

	"micropnp/internal/client"
	"micropnp/internal/driver"
	"micropnp/internal/hw"
	"micropnp/internal/thing"
)

func newDeployment(t *testing.T) *Deployment {
	t.Helper()
	d, err := NewDeployment(DeploymentConfig{})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestPlugAndPlayEndToEnd is the paper's headline scenario: plug a
// peripheral into a Thing, let identification + OTA driver install +
// advertisement run, then read the sensor remotely.
func TestPlugAndPlayEndToEnd(t *testing.T) {
	d := newDeployment(t)
	th, err := d.AddThing("lab-node")
	if err != nil {
		t.Fatal(err)
	}
	cl, err := d.AddClient()
	if err != nil {
		t.Fatal(err)
	}

	d.Env.Set(24.0, 40, 101_325)
	if err := d.PlugTMP36(th, 0); err != nil {
		t.Fatal(err)
	}
	d.Run()

	// The manager must have served exactly one driver upload.
	if d.Manager.Uploads() != 1 {
		t.Fatalf("uploads = %d, want 1", d.Manager.Uploads())
	}
	// The client must have seen the unsolicited advertisement.
	things := cl.Things(driver.IDTMP36)
	if len(things) != 1 || things[0] != th.Addr() {
		t.Fatalf("client sees things %v", things)
	}
	// And the advertisement must carry the TLV metadata.
	adv := cl.Adverts()[0]
	if name, ok := adv.Peripheral.TLVString(1); !ok || name != "lab-node" {
		t.Errorf("advert name TLV = %q, %v", name, ok)
	}

	// The advertisement also carries the units TLV for typed readings.
	if units, ok := adv.Peripheral.TLVString(4); !ok || units != "0.1°C" {
		t.Errorf("advert units TLV = %q, %v", units, ok)
	}

	// Remote read.
	var got []int32
	cl.Read(th.Addr(), driver.IDTMP36, 0, func(v []int32, err error) {
		if err == nil {
			got = v
		}
	})
	d.Run()
	if len(got) != 1 {
		t.Fatalf("read returned %v", got)
	}
	if got[0] < 230 || got[0] > 250 {
		t.Fatalf("temperature = %d tenths °C, want ~240", got[0])
	}
}

// TestPluginTraceMatchesTable4 checks the per-phase timings of the plug-in
// sequence against the Table 4 ballpark (one-hop, uncongested).
func TestPluginTraceMatchesTable4(t *testing.T) {
	d := newDeployment(t)
	th, _ := d.AddThing("node")
	// Table 4's install row is for a small (80-byte) driver; the TMP36
	// driver is the closest of the shipped set.
	if err := d.PlugTMP36(th, 1); err != nil {
		t.Fatal(err)
	}
	d.Run()

	traces := th.Traces()
	if len(traces) != 1 || !traces[0].Done {
		t.Fatalf("traces = %+v", traces)
	}
	tr := traces[0]
	check := func(name string, got, lo, hi time.Duration) {
		if got < lo || got > hi {
			t.Errorf("%s = %v, want in [%v, %v]", name, got, lo, hi)
		}
	}
	check("identification", tr.Identification, 220*time.Millisecond, 300*time.Millisecond)
	check("generate addr", tr.GenerateAddr, 2*time.Millisecond, 4*time.Millisecond)
	check("join group", tr.JoinGroup, 4*time.Millisecond, 7*time.Millisecond)
	check("request driver", tr.RequestDriver, 40*time.Millisecond, 70*time.Millisecond)
	check("install driver", tr.InstallDriver, 40*time.Millisecond, 80*time.Millisecond)
	check("advertise", tr.Advertise, 35*time.Millisecond, 60*time.Millisecond)
	// Section 8: complete process ≈ 488.53 ms in a one-hop network.
	check("total", tr.Total, 380*time.Millisecond, 600*time.Millisecond)
	if tr.Energy < 2.3e-3 || tr.Energy > 7e-3 {
		t.Errorf("identification energy = %v J", float64(tr.Energy))
	}
}

func TestDiscoveryFiltersByType(t *testing.T) {
	d := newDeployment(t)
	t1, _ := d.AddThing("t1")
	t2, _ := d.AddThing("t2")
	cl, _ := d.AddClient()
	if err := d.PlugBMP180(t1, 0); err != nil {
		t.Fatal(err)
	}
	if err := d.PlugTMP36(t2, 0); err != nil {
		t.Fatal(err)
	}
	d.Run()

	var got []client.Advert
	cl.Discover(driver.IDBMP180, 0, func(as []client.Advert) { got = as })
	d.Run()

	for _, a := range got {
		if !a.Solicited {
			t.Errorf("discovery collected an unsolicited advert from %v", a.Thing)
		}
		if a.Thing != t1.Addr() {
			t.Errorf("solicited advert from wrong thing %v", a.Thing)
		}
		if a.Peripheral.ID != driver.IDBMP180 {
			t.Errorf("solicited advert for wrong peripheral %v", a.Peripheral.ID)
		}
	}
	if len(got) != 1 {
		t.Fatalf("solicited adverts = %d, want 1", len(got))
	}
}

func TestDiscoverAllPeripherals(t *testing.T) {
	d := newDeployment(t)
	t1, _ := d.AddThing("t1")
	t2, _ := d.AddThing("t2")
	cl, _ := d.AddClient()
	if err := d.PlugTMP36(t1, 0); err != nil {
		t.Fatal(err)
	}
	if err := d.PlugHIH4030(t2, 0); err != nil {
		t.Fatal(err)
	}
	d.Run()

	cl.Discover(hw.DeviceIDAllPeripherals, 0, nil)
	d.Run()
	if n := len(cl.Things(hw.DeviceIDAllPeripherals)); n != 2 {
		t.Fatalf("discovered %d things, want 2", n)
	}
}

func TestRFIDReadAcrossNetwork(t *testing.T) {
	d := newDeployment(t)
	th, _ := d.AddThing("door")
	cl, _ := d.AddClient()
	rfid, err := d.PlugRFID(th, 2)
	if err != nil {
		t.Fatal(err)
	}
	d.Run()

	var got []int32
	cl.Read(th.Addr(), driver.IDID20LA, 0, func(v []int32, err error) {
		if err == nil {
			got = v
		}
	})
	// Let the read reach the driver (it arms the UART); no card yet, so no
	// reply — and the driver's 500 ms timeout has not elapsed either.
	d.RunFor(100 * time.Millisecond)

	if got != nil {
		t.Fatal("read must stay pending until a card appears")
	}
	// A card enters the field; its bytes arrive over the (virtual) wire
	// and the driver returns the card ID across the network.
	if err := rfid.PresentCard("0415AB96C3"); err != nil {
		t.Fatal(err)
	}
	d.RunFor(300 * time.Millisecond)

	if len(got) != 12 {
		t.Fatalf("card payload = %v", got)
	}
	cardID := make([]byte, 10)
	for i := range cardID {
		cardID[i] = byte(got[i])
	}
	if string(cardID) != "0415AB96C3" {
		t.Fatalf("card = %q", cardID)
	}
}

// TestRFIDReadTimeoutThenRetry: a read the driver never answers (no card)
// expires on both sides — the client surfaces ErrTimeout AND the Thing
// drops its stale pending entry, so a retry read gets the fresh card
// instead of having its reply sent under the stale sequence number.
func TestRFIDReadTimeoutThenRetry(t *testing.T) {
	d := newDeployment(t)
	th, _ := d.AddThing("door")
	cl, _ := d.AddClient()
	rfid, err := d.PlugRFID(th, 0)
	if err != nil {
		t.Fatal(err)
	}
	d.Run()

	// First read: no card, the client's deadline passes.
	var firstErr error
	cl.Read(th.Addr(), driver.IDID20LA, 2*time.Second, func(_ []int32, err error) { firstErr = err })
	d.RunFor(thing.PendingReadTimeout + time.Second) // expire both sides
	if !errors.Is(firstErr, client.ErrTimeout) {
		t.Fatalf("no-card read = %v, want ErrTimeout", firstErr)
	}

	// Retry with a card present: must return this read's values.
	var got []int32
	var retryErr error
	cl.Read(th.Addr(), driver.IDID20LA, 0, func(v []int32, err error) { got, retryErr = v, err })
	d.RunFor(100 * time.Millisecond) // request arrives, UART armed
	if err := rfid.PresentCard("0415AB96C3"); err != nil {
		t.Fatal(err)
	}
	d.RunFor(300 * time.Millisecond)
	if retryErr != nil {
		t.Fatalf("retry read failed: %v", retryErr)
	}
	if len(got) != 12 {
		t.Fatalf("retry read = %v, want the 12-character card frame", got)
	}
}

func TestStreamLifecycle(t *testing.T) {
	d, err := NewDeployment(DeploymentConfig{StreamPeriod: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	th, _ := d.AddThing("node")
	cl, _ := d.AddClient()
	d.Env.Set(20, 40, 101_325)
	if err := d.PlugTMP36(th, 0); err != nil {
		t.Fatal(err)
	}
	d.Run()

	var samples [][]int32
	closed := false
	cl.Subscribe(th.Addr(), driver.IDTMP36, client.SubscribeOptions{
		OnData:   func(v []int32) { samples = append(samples, v) },
		OnClosed: func() { closed = true },
	})
	d.RunFor(35 * time.Second) // 3 stream ticks

	if len(samples) != 3 {
		t.Fatalf("stream samples = %d, want 3", len(samples))
	}
	th.StopStream(driver.IDTMP36)
	d.Run()
	if !closed {
		t.Fatal("client must observe the closed message")
	}
	// After closing, no more data.
	n := len(samples)
	d.RunFor(30 * time.Second)
	if len(samples) != n {
		t.Fatal("stream must stop producing after close")
	}
}

func TestWriteToActuator(t *testing.T) {
	// Use the TMP36 driver as a stand-in: it has no write handler, so the
	// event is dropped but the ack must still come back.
	d := newDeployment(t)
	th, _ := d.AddThing("node")
	cl, _ := d.AddClient()
	if err := d.PlugTMP36(th, 0); err != nil {
		t.Fatal(err)
	}
	d.Run()

	acked := false
	cl.Write(th.Addr(), driver.IDTMP36, []int32{1}, 0, func(err error) { acked = err == nil })
	d.Run()
	if !acked {
		t.Fatal("write must be acknowledged")
	}
	// Write to an absent peripheral: rejected.
	var nackErr error
	cl.Write(th.Addr(), 0x999, []int32{1}, 0, func(err error) { nackErr = err })
	d.Run()
	if !errors.Is(nackErr, client.ErrWriteRejected) {
		t.Fatalf("write to absent peripheral = %v, want ErrWriteRejected", nackErr)
	}
}

func TestUnplugTearsDown(t *testing.T) {
	d := newDeployment(t)
	th, _ := d.AddThing("node")
	cl, _ := d.AddClient()
	if err := d.PlugTMP36(th, 0); err != nil {
		t.Fatal(err)
	}
	d.Run()
	if th.Runtime(driver.IDTMP36) == nil {
		t.Fatal("driver must be active")
	}

	fired := 0
	cl.AddAdvertHook(func(client.Advert) { fired++ })
	if err := th.Unplug(0); err != nil {
		t.Fatal(err)
	}
	d.Run()
	if th.Runtime(driver.IDTMP36) != nil {
		t.Fatal("driver must be stopped after unplug")
	}
	// Disconnection triggers an advertisement update (now empty).
	if fired != 0 {
		// the empty advert carries no peripherals, so no Advert fires
		t.Fatalf("unexpected adverts after unplug: %d", fired)
	}
	// Reads now surface the absent-peripheral error.
	var readErr error
	cl.Read(th.Addr(), driver.IDTMP36, 0, func(_ []int32, err error) { readErr = err })
	d.Run()
	if !errors.Is(readErr, client.ErrNoPeripheral) {
		t.Fatalf("read after unplug = %v, want ErrNoPeripheral", readErr)
	}
}

func TestDriverCachedOnSecondPlug(t *testing.T) {
	d := newDeployment(t)
	th, _ := d.AddThing("node")
	if err := d.PlugTMP36(th, 0); err != nil {
		t.Fatal(err)
	}
	d.Run()
	if err := th.Unplug(0); err != nil {
		t.Fatal(err)
	}
	d.Run()
	if err := d.PlugTMP36(th, 1); err != nil {
		t.Fatal(err)
	}
	d.Run()

	if d.Manager.Uploads() != 1 {
		t.Fatalf("uploads = %d; the second plug must reuse the cached driver", d.Manager.Uploads())
	}
	traces := th.Traces()
	if len(traces) != 2 {
		t.Fatalf("traces = %d", len(traces))
	}
	if traces[1].RequestDriver != 0 {
		t.Errorf("second plug must not hit the manager (request phase %v)", traces[1].RequestDriver)
	}
	if traces[1].Total >= traces[0].Total {
		t.Errorf("cached plug-in (%v) must be faster than OTA plug-in (%v)",
			traces[1].Total, traces[0].Total)
	}
}

func TestManagerDriverManagement(t *testing.T) {
	d := newDeployment(t)
	th, _ := d.AddThing("node")
	if err := d.PlugTMP36(th, 0); err != nil {
		t.Fatal(err)
	}
	d.Run()

	// Driver discovery (messages 6/7).
	var discovered []hw.DeviceID
	d.Manager.DiscoverDrivers(th.Addr(), 0, func(ids []hw.DeviceID, err error) {
		if err == nil {
			discovered = ids
		}
	})
	d.Run()
	if len(discovered) != 1 || discovered[0] != driver.IDTMP36 {
		t.Fatalf("discovered = %v", discovered)
	}

	// Driver removal (messages 8/9).
	var removed bool
	d.Manager.RemoveDriver(th.Addr(), driver.IDTMP36, 0, func(err error) { removed = err == nil })
	d.Run()
	if !removed {
		t.Fatal("removal must be acknowledged")
	}
	if th.Runtime(driver.IDTMP36) != nil {
		t.Fatal("runtime must stop when its driver is removed")
	}

	// Removing again is rejected.
	var againErr error
	d.Manager.RemoveDriver(th.Addr(), driver.IDTMP36, 0, func(err error) { againErr = err })
	d.Run()
	if !errors.Is(againErr, client.ErrRemovalRejected) {
		t.Fatalf("second removal = %v, want ErrRemovalRejected", againErr)
	}
}

func TestMultiHopPluginSlower(t *testing.T) {
	d := newDeployment(t)
	near, _ := d.AddThing("near")
	mid, _ := d.AddThingAt("mid", near.Node())
	far, _ := d.AddThingAt("far", mid.Node())

	if err := d.PlugTMP36(near, 0); err != nil {
		t.Fatal(err)
	}
	d.Run()
	if err := d.PlugHIH4030(far, 0); err != nil {
		t.Fatal(err)
	}
	d.Run()

	nearTr := near.Traces()[0]
	farTr := far.Traces()[0]
	if !nearTr.Done || !farTr.Done {
		t.Fatal("both plugs must complete")
	}
	if farTr.RequestDriver <= nearTr.RequestDriver {
		t.Errorf("3-hop request (%v) must be slower than 1-hop (%v)",
			farTr.RequestDriver, nearTr.RequestDriver)
	}
}

func TestBMP180RemoteRead(t *testing.T) {
	d := newDeployment(t)
	th, _ := d.AddThing("weather")
	cl, _ := d.AddClient()
	d.Env.Set(18.0, 40, 100_200)
	if err := d.PlugBMP180(th, 0); err != nil {
		t.Fatal(err)
	}
	d.Run()

	var got []int32
	cl.Read(th.Addr(), driver.IDBMP180, 0, func(v []int32, err error) {
		if err == nil {
			got = v
		}
	})
	d.Run()
	if len(got) != 2 {
		t.Fatalf("BMP180 read = %v", got)
	}
	if got[0] < 175 || got[0] > 185 {
		t.Errorf("temperature = %d tenths °C, want ~180", got[0])
	}
	if got[1] < 100_150 || got[1] > 100_250 {
		t.Errorf("pressure = %d Pa, want ~100200", got[1])
	}
}

// TestThingsShareDriverImages plugs the same peripheral types into Things
// made by every AddThing form: each type's runtimes all run one shared
// image, and the deployment's table holds one image per distinct driver.
func TestThingsShareDriverImages(t *testing.T) {
	d := newDeployment(t)
	var things []*thing.Thing
	for i := 0; i < 6; i++ {
		var th *thing.Thing
		var err error
		switch i % 3 {
		case 0:
			th, err = d.AddThing("t")
		case 1:
			th, err = d.AddThingInZone("t", 1, nil)
		default:
			th, err = d.AddZonedThing("t", 2)
		}
		if err != nil {
			t.Fatal(err)
		}
		if err := d.PlugTMP36(th, 0); err != nil {
			t.Fatal(err)
		}
		if i < 2 {
			if err := d.PlugHIH4030(th, 1); err != nil {
				t.Fatal(err)
			}
		}
		things = append(things, th)
	}
	d.Run()

	image := func(th *thing.Thing, id hw.DeviceID) any {
		rt := th.Runtime(id)
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
