// End-to-end deployment tests through the public SDK: the plug-in
// sequence, discovery, reads and writes of every peripheral model, streams,
// unplugging, and plug-in under loss.
package micropnp_test

import (
	"context"
	"errors"
	"math"
	"testing"
	"time"

	"micropnp"
)

// TestPlugAndPlayEndToEnd is the paper's headline scenario: plug a
// peripheral into a Thing, let identification + OTA driver install +
// advertisement run, then read the sensor remotely.
func TestPlugAndPlayEndToEnd(t *testing.T) {
	d := newSDKDeployment(t)
	th, err := d.AddThing("lab-node")
	if err != nil {
		t.Fatal(err)
	}
	cl, err := d.AddClient()
	if err != nil {
		t.Fatal(err)
	}

	d.SetEnvironment(24.0, 40, 101_325)
	if err := th.PlugTMP36(0); err != nil {
		t.Fatal(err)
	}
	d.Run()

	// The manager must have served exactly one driver upload.
	if n := d.ManagerUploads(); n != 1 {
		t.Fatalf("uploads = %d, want 1", n)
	}
	// The client must have seen the unsolicited advertisement.
	things := cl.Things(micropnp.TMP36)
	if len(things) != 1 || things[0] != th.Addr() {
		t.Fatalf("client sees things %v", things)
	}
	// And the advertisement must carry the name and units TLVs.
	adv := cl.Adverts()[0]
	if adv.Name != "lab-node" {
		t.Errorf("advert name = %q", adv.Name)
	}
	if adv.Units != "0.1°C" {
		t.Errorf("advert units = %q", adv.Units)
	}

	r, err := cl.Read(context.Background(), th.Addr(), micropnp.TMP36)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Values) != 1 {
		t.Fatalf("read returned %v", r.Values)
	}
	if r.Values[0] < 230 || r.Values[0] > 250 {
		t.Fatalf("temperature = %d tenths °C, want ~240", r.Values[0])
	}
}

// TestPluginTraceMatchesTable4 checks the per-phase timings of the plug-in
// sequence against the Table 4 ballpark (one-hop, uncongested).
func TestPluginTraceMatchesTable4(t *testing.T) {
	d := newSDKDeployment(t)
	th, _ := d.AddThing("node")
	// Table 4's install row is for a small (80-byte) driver; the TMP36
	// driver is the closest of the shipped set.
	if err := th.PlugTMP36(1); err != nil {
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
	d := newSDKDeployment(t)
	t1, _ := d.AddThing("t1")
	t2, _ := d.AddThing("t2")
	cl, _ := d.AddClient()
	if err := t1.PlugBMP180(0); err != nil {
		t.Fatal(err)
	}
	if err := t2.PlugTMP36(0); err != nil {
		t.Fatal(err)
	}
	d.Run()

	got, err := cl.Discover(context.Background(), micropnp.BMP180)
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range got {
		if !a.Solicited {
			t.Errorf("discovery collected an unsolicited advert from %v", a.Thing)
		}
		if a.Thing != t1.Addr() {
			t.Errorf("solicited advert from wrong thing %v", a.Thing)
		}
		if a.Device != micropnp.BMP180 {
			t.Errorf("solicited advert for wrong peripheral %v", a.Device)
		}
	}
	if len(got) != 1 {
		t.Fatalf("solicited adverts = %d, want 1", len(got))
	}
}

func TestDiscoverAllPeripherals(t *testing.T) {
	d := newSDKDeployment(t)
	t1, _ := d.AddThing("t1")
	t2, _ := d.AddThing("t2")
	cl, _ := d.AddClient()
	if err := t1.PlugTMP36(0); err != nil {
		t.Fatal(err)
	}
	if err := t2.PlugHIH4030(0); err != nil {
		t.Fatal(err)
	}
	d.Run()

	if _, err := cl.Discover(context.Background(), micropnp.AllPeripherals); err != nil {
		t.Fatal(err)
	}
	if n := len(cl.Things(micropnp.AllPeripherals)); n != 2 {
		t.Fatalf("discovered %d things, want 2", n)
	}
}

// cardFrame decodes an RFID read's 12 payload characters.
func cardFrame(t *testing.T, vals []int32) string {
	t.Helper()
	if len(vals) != 12 {
		t.Fatalf("card payload = %v, want the 12-character card frame", vals)
	}
	b := make([]byte, len(vals))
	for i, v := range vals {
		b[i] = byte(v)
	}
	return string(b)
}

func TestRFIDReadAcrossNetwork(t *testing.T) {
	d := newSDKDeployment(t)
	th, _ := d.AddThing("door")
	cl, _ := d.AddClient()
	rfid, err := th.PlugRFID(2)
	if err != nil {
		t.Fatal(err)
	}
	d.Run()

	// The read reaches the driver, which arms the UART; no card yet, so the
	// read stays pending until a card enters the field 100 ms later. Its
	// bytes arrive over the (virtual) wire and the driver returns the card
	// ID across the network.
	start := d.Now()
	d.ScheduleAfter(100*time.Millisecond, func() {
		if err := rfid.PresentCard("0415AB96C3"); err != nil {
			t.Error(err)
		}
	})
	r, err := cl.Read(context.Background(), th.Addr(), micropnp.ID20LA)
	if err != nil {
		t.Fatal(err)
	}
	if r.At < start+100*time.Millisecond {
		t.Fatalf("read answered at %v, before the card appeared", r.At-start)
	}
	if card := cardFrame(t, r.Values); card[:10] != "0415AB96C3" {
		t.Fatalf("card = %q", card)
	}
}

// TestRFIDReadTimeoutThenRetry: a read the driver never answers (no card)
// expires on both sides — the client surfaces ErrTimeout AND the Thing
// drops its stale pending entry, so a retry read gets the fresh card
// instead of having its reply sent under the stale sequence number.
func TestRFIDReadTimeoutThenRetry(t *testing.T) {
	d := newSDKDeployment(t)
	th, _ := d.AddThing("door")
	cl, _ := d.AddClient()
	rfid, err := th.PlugRFID(0)
	if err != nil {
		t.Fatal(err)
	}
	d.Run()

	// First read: no card, the client's 2 s deadline passes while the
	// Thing still holds the read for its 5 s default.
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	_, err = cl.Read(ctx, th.Addr(), micropnp.ID20LA)
	cancel()
	if !errors.Is(err, micropnp.ErrTimeout) {
		t.Fatalf("no-card read = %v, want ErrTimeout", err)
	}
	d.RunFor(6 * time.Second) // expire the Thing's side too

	// Retry with a card present: must return this read's values.
	d.ScheduleAfter(100*time.Millisecond, func() {
		if err := rfid.PresentCard("0415AB96C3"); err != nil {
			t.Error(err)
		}
	})
	r, err := cl.Read(context.Background(), th.Addr(), micropnp.ID20LA)
	if err != nil {
		t.Fatalf("retry read failed: %v", err)
	}
	cardFrame(t, r.Values)
}

// TestRequestTimeoutReachesThingPendingReads: WithRequestTimeout also sets
// how long Things hold an unanswered read. A read still unanswered past the
// Things' 5 s default must get the driver's late return value — not lose
// it to a younger read — while its raised deadline has not passed.
func TestRequestTimeoutReachesThingPendingReads(t *testing.T) {
	d := newSDKDeployment(t, micropnp.WithRequestTimeout(10*time.Second))
	th, _ := d.AddThing("door")
	cl, _ := d.AddClient()
	rfid, err := th.PlugRFID(0)
	if err != nil {
		t.Fatal(err)
	}
	d.Run()

	ctx := context.Background()
	start := d.Now()
	var (
		late    micropnp.Reading
		lateErr error
	)
	d.Conduct(
		// The reader arms for 500 ms and gives up; the read stays pending.
		func(*micropnp.Strand) { late, lateErr = cl.Read(ctx, th.Addr(), micropnp.ID20LA) },
		// 7 s in, a second read re-arms the reader and a card appears. The
		// Thing answers its oldest pending read with the card.
		func(s *micropnp.Strand) {
			s.Until(start + 7*time.Second)
			d.ScheduleAfter(100*time.Millisecond, func() {
				if err := rfid.PresentCard("0415AB96C3"); err != nil {
					t.Error(err)
				}
			})
			_, _ = cl.Read(ctx, th.Addr(), micropnp.ID20LA)
		},
	)
	if lateErr != nil {
		t.Fatalf("read answered after 7 s under a 10 s request timeout = %v; the Thing dropped it at its own default", lateErr)
	}
	if late.At < start+7*time.Second {
		t.Fatalf("read answered at %v, before the card appeared", late.At-start)
	}
	cardFrame(t, late.Values)
}

func TestStreamLifecycle(t *testing.T) {
	d := newSDKDeployment(t, micropnp.WithStreamPeriod(10*time.Second))
	th, _ := d.AddThing("node")
	cl, _ := d.AddClient()
	d.SetEnvironment(20, 40, 101_325)
	if err := th.PlugTMP36(0); err != nil {
		t.Fatal(err)
	}
	d.Run()

	sub, err := cl.Subscribe(context.Background(), th.Addr(), micropnp.TMP36, nil)
	if err != nil {
		t.Fatal(err)
	}
	d.RunFor(35 * time.Second) // 3 stream ticks

	if n := len(sub.Readings()); n != 3 {
		t.Fatalf("stream samples = %d, want 3", n)
	}
	th.StopStream(micropnp.TMP36)
	d.Run()
	if !sub.Closed() {
		t.Fatal("client must observe the closed message")
	}
	// After closing, no more data.
	n := len(sub.Readings())
	d.RunFor(30 * time.Second)
	if len(sub.Readings()) != n {
		t.Fatal("stream must stop producing after close")
	}
}

func TestWriteToActuator(t *testing.T) {
	// Use the TMP36 driver as a stand-in: it has no write handler, so the
	// event is dropped but the ack must still come back.
	d := newSDKDeployment(t)
	th, _ := d.AddThing("node")
	cl, _ := d.AddClient()
	if err := th.PlugTMP36(0); err != nil {
		t.Fatal(err)
	}
	d.Run()

	ctx := context.Background()
	if err := cl.Write(ctx, th.Addr(), micropnp.TMP36, []int32{1}); err != nil {
		t.Fatalf("write must be acknowledged: %v", err)
	}
	// Write to an absent peripheral: rejected.
	if err := cl.Write(ctx, th.Addr(), 0x999, []int32{1}); !errors.Is(err, micropnp.ErrWriteRejected) {
		t.Fatalf("write to absent peripheral = %v, want ErrWriteRejected", err)
	}
}

func TestDriverCachedOnSecondPlug(t *testing.T) {
	d := newSDKDeployment(t)
	th, _ := d.AddThing("node")
	if err := th.PlugTMP36(0); err != nil {
		t.Fatal(err)
	}
	d.Run()
	if err := th.Unplug(0); err != nil {
		t.Fatal(err)
	}
	d.Run()
	if err := th.PlugTMP36(1); err != nil {
		t.Fatal(err)
	}
	d.Run()

	if n := d.ManagerUploads(); n != 1 {
		t.Fatalf("uploads = %d; the second plug must reuse the cached driver", n)
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

func TestMultiHopPluginSlower(t *testing.T) {
	d := newSDKDeployment(t)
	near, _ := d.AddThing("near")
	mid, _ := d.AddThing("mid", micropnp.Under(near))
	far, _ := d.AddThing("far", micropnp.Under(mid))

	if err := near.PlugTMP36(0); err != nil {
		t.Fatal(err)
	}
	d.Run()
	if err := far.PlugHIH4030(0); err != nil {
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
	d := newSDKDeployment(t)
	th, _ := d.AddThing("weather")
	cl, _ := d.AddClient()
	d.SetEnvironment(18.0, 40, 100_200)
	if err := th.PlugBMP180(0); err != nil {
		t.Fatal(err)
	}
	d.Run()

	r, err := cl.Read(context.Background(), th.Addr(), micropnp.BMP180)
	if err != nil {
		t.Fatal(err)
	}
	got := r.Values
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

// TestADXL345RemoteRead runs the SPI extension driver end to end: plug,
// OTA install, remote read of the three axes in milli-g.
func TestADXL345RemoteRead(t *testing.T) {
	d := newSDKDeployment(t)
	th, _ := d.AddThing("mover")
	cl, _ := d.AddClient()
	d.SetAcceleration(0.25, -0.5, 1.0)
	if err := th.PlugADXL345(0); err != nil {
		t.Fatal(err)
	}
	d.Run()

	r, err := cl.Read(context.Background(), th.Addr(), micropnp.ADXL345)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Values) != 3 {
		t.Fatalf("axes = %v", r.Values)
	}
	want := []float64{250, -500, 1000} // mg
	for i, w := range want {
		// 3.9 mg/LSB quantisation plus integer scaling: allow ±8 mg.
		if math.Abs(float64(r.Values[i])-w) > 8 {
			t.Errorf("axis %d = %d mg, want ~%.0f", i, r.Values[i], w)
		}
	}
}

// TestRelayWriteActuatesHardware runs the write path onto a real (simulated)
// actuator: the client's write energises the relay outputs.
func TestRelayWriteActuatesHardware(t *testing.T) {
	d := newSDKDeployment(t)
	th, _ := d.AddThing("panel")
	cl, _ := d.AddClient()
	relay, err := th.PlugRelay(1)
	if err != nil {
		t.Fatal(err)
	}
	d.Run()

	ctx := context.Background()
	if err := cl.Write(ctx, th.Addr(), micropnp.Relay, []int32{0b1010_0101}); err != nil {
		t.Fatalf("write must be acknowledged: %v", err)
	}
	if relay.State() != 0b1010_0101 {
		t.Fatalf("relay outputs = %08b, want 10100101", relay.State())
	}

	// Remote read reflects the hardware state.
	r, err := cl.Read(ctx, th.Addr(), micropnp.Relay)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Values) != 1 || r.Values[0] != 0b1010_0101 {
		t.Fatalf("read-back = %v", r.Values)
	}
}

// TestClassDiscoveryFindsExtensionDevices composes the extensions: a zoned
// Thing serving the accelerometer answers a class-wildcard discovery.
func TestClassDiscoveryFindsExtensionDevices(t *testing.T) {
	d := newSDKDeployment(t)
	th, err := d.AddZonedThing("wing-a", 3)
	if err != nil {
		t.Fatal(err)
	}
	cl, _ := d.AddClient()
	if err := th.PlugADXL345(0); err != nil {
		t.Fatal(err)
	}
	d.Run()

	got, err := cl.DiscoverClass(context.Background(), micropnp.ClassAccelerometer)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, a := range got {
		if a.Device == micropnp.ADXL345 {
			found = true
		}
	}
	if !found {
		t.Fatal("class discovery must find the accelerometer")
	}
}

// TestLossyDriverInstallRetries exercises the retransmission extension: with
// heavy frame loss the install request or upload can vanish; the Thing must
// retry and eventually complete the plug-in.
func TestLossyDriverInstallRetries(t *testing.T) {
	completed := false
	for seed := int64(1); seed <= 5 && !completed; seed++ {
		d := newSDKDeployment(t, micropnp.WithLossRate(0.35), micropnp.WithSeed(seed))
		th, err := d.AddThing("lossy")
		if err != nil {
			t.Fatal(err)
		}
		if err := th.PlugTMP36(0); err != nil {
			t.Fatal(err)
		}
		d.Run()
		if trs := th.Traces(); len(trs) == 1 && trs[0].Done {
			completed = true
			// With retries, the request phase may exceed the lossless one.
			if ids := th.InstalledDrivers(); len(ids) != 1 || ids[0] != micropnp.TMP36 {
				t.Fatalf("installed drivers after a completed trace = %v", ids)
			}
		}
	}
	if !completed {
		t.Fatal("no plug-in completed under 35% loss across 5 seeds; retransmission is broken")
	}
}

// TestTotalLossNeverCompletes documents the bound: with 100% loss the Thing
// retries its driver request a bounded number of times and gives up
// cleanly: the network goes idle well within an hour of virtual time.
func TestTotalLossNeverCompletes(t *testing.T) {
	d := newSDKDeployment(t, micropnp.WithLossRate(1.0))
	th, err := d.AddThing("void")
	if err != nil {
		t.Fatal(err)
	}
	if err := th.PlugTMP36(0); err != nil {
		t.Fatal(err)
	}
	if !d.Quiesce(time.Hour) {
		t.Fatal("network must go idle after bounded retries")
	}
	if th.Traces()[0].Done {
		t.Fatal("plug-in cannot complete with 100% loss")
	}
	if ids := th.InstalledDrivers(); len(ids) != 0 {
		t.Fatalf("no driver can be installed, got %v", ids)
	}
}
