package core

import (
	"math"
	"testing"

	"micropnp/internal/client"
	"micropnp/internal/driver"
	"micropnp/internal/hw"
)

// TestADXL345RemoteRead runs the SPI extension driver end to end: plug,
// OTA install, remote read of the three axes in milli-g.
func TestADXL345RemoteRead(t *testing.T) {
	d := newDeployment(t)
	th, _ := d.AddThing("mover")
	cl, _ := d.AddClient()
	d.Env.SetAcceleration(0.25, -0.5, 1.0)
	if err := d.PlugADXL345(th, 0); err != nil {
		t.Fatal(err)
	}
	d.Run()

	var got []int32
	cl.Read(th.Addr(), driver.IDADXL345, 0, func(v []int32, err error) {
		if err == nil {
			got = v
		}
	})
	d.Run()
	if len(got) != 3 {
		t.Fatalf("axes = %v", got)
	}
	want := []float64{250, -500, 1000} // mg
	for i, w := range want {
		// 3.9 mg/LSB quantisation plus integer scaling: allow ±8 mg.
		if math.Abs(float64(got[i])-w) > 8 {
			t.Errorf("axis %d = %d mg, want ~%.0f", i, got[i], w)
		}
	}
}

// TestRelayWriteActuatesHardware runs the write path onto a real (simulated)
// actuator: the client's write energises the relay outputs.
func TestRelayWriteActuatesHardware(t *testing.T) {
	d := newDeployment(t)
	th, _ := d.AddThing("panel")
	cl, _ := d.AddClient()
	relay, err := d.PlugRelay(th, 1)
	if err != nil {
		t.Fatal(err)
	}
	d.Run()

	acked := false
	cl.Write(th.Addr(), driver.IDRelay, []int32{0b1010_0101}, 0, func(err error) { acked = err == nil })
	d.Run()
	if !acked {
		t.Fatal("write must be acknowledged")
	}
	if relay.State() != 0b1010_0101 {
		t.Fatalf("relay outputs = %08b, want 10100101", relay.State())
	}

	// Remote read reflects the hardware state.
	var got []int32
	cl.Read(th.Addr(), driver.IDRelay, 0, func(v []int32, err error) {
		if err == nil {
			got = v
		}
	})
	d.Run()
	if len(got) != 1 || got[0] != 0b1010_0101 {
		t.Fatalf("read-back = %v", got)
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

// TestClassDiscoveryFindsExtensionDevices composes the extensions: a zoned
// Thing serving the accelerometer answers a class-wildcard discovery.
func TestClassDiscoveryFindsExtensionDevices(t *testing.T) {
	d := newDeployment(t)
	th, err := d.AddZonedThing("wing-a", 3)
	if err != nil {
		t.Fatal(err)
	}
	cl, _ := d.AddClient()
	if err := d.PlugADXL345(th, 0); err != nil {
		t.Fatal(err)
	}
	d.Run()

	var got []client.Advert
	cl.DiscoverClass(hw.ClassAccelerometer, 0, func(as []client.Advert) { got = as })
	d.Run()
	found := false
	for _, a := range got {
		if a.Peripheral.ID == driver.IDADXL345 {
			found = true
		}
	}
	if !found {
		t.Fatal("class discovery must find the accelerometer")
	}
}
