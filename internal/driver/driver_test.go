package driver

import (
	"net/netip"
	"strings"
	"testing"
	"time"

	"micropnp/internal/bus"
	"micropnp/internal/bytecode"
	"micropnp/internal/dsl"
	"micropnp/internal/hw"
	"micropnp/internal/netsim"
	"micropnp/internal/vm"
)

func TestStandardRepository(t *testing.T) {
	repo, err := StandardRepository()
	if err != nil {
		t.Fatal(err)
	}
	entries := repo.List()
	if len(entries) != 4 {
		t.Fatalf("entries = %d, want 4", len(entries))
	}
	for _, e := range entries {
		if e.Status != StatusPermanent {
			t.Errorf("%s must be permanent after upload", e.Name)
		}
		if len(e.Bytecode) == 0 || len(e.Bytecode) > 1024 {
			t.Errorf("%s bytecode size = %d, want compact", e.Name, len(e.Bytecode))
		}
	}
	got, ok := repo.Lookup(IDID20LA)
	if !ok || got.Bus != hw.BusUART {
		t.Fatalf("ID20LA lookup = %+v, %v", got, ok)
	}
}

func TestRepositoryLifecycle(t *testing.T) {
	repo := NewRepository()
	if err := repo.Reserve(0x1234, "Widget", hw.BusSPI); err != nil {
		t.Fatal(err)
	}
	if err := repo.Reserve(0x1234, "Widget2", hw.BusSPI); err == nil {
		t.Fatal("duplicate reservation must fail")
	}
	if err := repo.Reserve(hw.DeviceIDAllClients, "Bad", hw.BusSPI); err == nil {
		t.Fatal("reserved identifier must fail")
	}
	if _, ok := repo.Lookup(0x1234); ok {
		t.Fatal("provisional entry without driver must not be served")
	}
	// Provisional entries can be garbage collected; permanent ones cannot.
	if err := repo.Remove(0x1234); err != nil {
		t.Fatal(err)
	}
	if err := repo.Remove(0x1234); err == nil {
		t.Fatal("double removal must fail")
	}
}

func TestUploadValidation(t *testing.T) {
	repo := NewRepository()
	if err := repo.Reserve(0x1234, "Widget", hw.BusADC); err != nil {
		t.Fatal(err)
	}

	if err := repo.Upload(0x1234, []byte("garbage"), ""); err == nil {
		t.Fatal("garbage upload must be rejected")
	}

	// A valid driver but with the wrong claimed identifier.
	src := "event init():\n    pass;\nevent destroy():\n    pass;\n"
	wrong, err := dsl.Compile(src, 0x9999)
	if err != nil {
		t.Fatal(err)
	}
	wrongCode, _ := wrong.Encode()
	if err := repo.Upload(0x1234, wrongCode, src); err == nil {
		t.Fatal("identifier mismatch must be rejected")
	}

	// Unreserved identifier.
	right, _ := dsl.Compile(src, 0x5555)
	rightCode, _ := right.Encode()
	if err := repo.Upload(0x5555, rightCode, src); err == nil {
		t.Fatal("upload for unreserved identifier must fail")
	}

	// Successful upload promotes to permanent.
	ok, _ := dsl.Compile(src, 0x1234)
	okCode, _ := ok.Encode()
	if err := repo.Upload(0x1234, okCode, src); err != nil {
		t.Fatal(err)
	}
	e, found := repo.Lookup(0x1234)
	if !found || e.Status != StatusPermanent {
		t.Fatalf("entry = %+v", e)
	}
	if err := repo.Remove(0x1234); err == nil {
		t.Fatal("permanent entries are immutable")
	}
	// Drivers may still be updated after promotion.
	if err := repo.Upload(0x1234, okCode, src); err != nil {
		t.Fatal(err)
	}
}

func TestUploadRejectsUnverifiableBytecode(t *testing.T) {
	repo := NewRepository()
	if err := repo.Reserve(0x7777, "Evil", hw.BusADC); err != nil {
		t.Fatal(err)
	}
	// Hand-build a program with an out-of-range static access.
	p := &bytecode.Program{
		DeviceID: 0x7777,
		Handlers: []bytecode.Handler{
			{Name: "init", Code: []byte{byte(bytecode.OpLoadStatic), 5, byte(bytecode.OpReturnVoid)}},
			{Name: "destroy", Code: []byte{byte(bytecode.OpReturnVoid)}},
		},
	}
	code, err := p.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if err := repo.Upload(0x7777, code, ""); err == nil {
		t.Fatal("unverifiable bytecode must be rejected")
	}
}

// readOnNode runs a driver image on a node of its own virtual network, as a
// Thing runs its drivers on its node's clock: it starts the driver, posts
// one read, drives the network until idle and returns the values read and
// the runtime.
func readOnNode(t *testing.T, img *vm.Image, libs ...vm.Library) ([]int32, *vm.Runtime) {
	t.Helper()
	n := netsim.New(netsim.Config{})
	node, err := n.AddNode(netip.MustParseAddr("2001:db8::1"), nil)
	if err != nil {
		t.Fatal(err)
	}
	rt, err := vm.NewRuntime(img, node, libs...)
	if err != nil {
		t.Fatal(err)
	}
	var got []int32
	rt.OnReturn(func(v []int32) { got = v })
	rt.Start()
	n.RunUntilIdle(0)
	rt.Post("read")
	rt.RunUntilIdle(0)
	n.RunUntilIdle(0)
	return got, rt
}

// TestTMP36DriverEndToEnd runs the shipped TMP36 driver against the
// simulated sensor and checks the temperature it reports.
func TestTMP36DriverEndToEnd(t *testing.T) {
	repo, err := StandardRepository()
	if err != nil {
		t.Fatal(err)
	}
	entry, _ := repo.Lookup(IDTMP36)
	img, err := vm.NewImages().Load(entry.Bytecode)
	if err != nil {
		t.Fatal(err)
	}

	env := bus.NewEnvironment()
	env.Set(31.0, 40, 101_325)
	adc := bus.NewADC()
	adc.Connect(&bus.TMP36{Env: env})

	got, _ := readOnNode(t, img, &vm.ADCLib{ADC: adc}, &vm.TimerLib{})

	if len(got) != 1 {
		t.Fatalf("returned %v", got)
	}
	// Tenths of °C; one ADC LSB ≈ 3.2 tenths.
	if got[0] < 305 || got[0] > 315 {
		t.Fatalf("temperature = %d tenths °C, want ~310", got[0])
	}
}

func TestHIH4030DriverEndToEnd(t *testing.T) {
	repo, _ := StandardRepository()
	entry, _ := repo.Lookup(IDHIH4030)
	img, err := vm.NewImages().Load(entry.Bytecode)
	if err != nil {
		t.Fatal(err)
	}

	env := bus.NewEnvironment()
	env.Set(25, 55, 101_325)
	adc := bus.NewADC()
	adc.Connect(&bus.HIH4030{Env: env})

	got, _ := readOnNode(t, img, &vm.ADCLib{ADC: adc}, &vm.TimerLib{})

	if len(got) != 1 {
		t.Fatalf("returned %v", got)
	}
	if got[0] < 520 || got[0] > 580 {
		t.Fatalf("humidity = %d tenths %%RH, want ~550", got[0])
	}
}

// TestBMP180DriverEndToEnd exercises the longest shipped driver: calibration
// readout, split-phase conversions through the timer library, and the full
// datasheet compensation — all in interpreted DSL bytecode.
func TestBMP180DriverEndToEnd(t *testing.T) {
	repo, _ := StandardRepository()
	entry, _ := repo.Lookup(IDBMP180)
	img, err := vm.NewImages().Load(entry.Bytecode)
	if err != nil {
		t.Fatal(err)
	}

	env := bus.NewEnvironment()
	env.Set(22.5, 40, 99_800)
	i2c := bus.NewI2C()
	if err := i2c.Attach(bus.NewBMP180(env)); err != nil {
		t.Fatal(err)
	}

	// Start reads all 11 calibration words.
	got, rt := readOnNode(t, img, &vm.I2CLib{Bus: i2c}, &vm.TimerLib{})

	if len(got) != 2 {
		t.Fatalf("returned %v, want [temp, pressure]", got)
	}
	if got[0] < 220 || got[0] > 230 {
		t.Errorf("temperature = %d tenths °C, want ~225", got[0])
	}
	if got[1] < 99_780 || got[1] > 99_820 {
		t.Errorf("pressure = %d Pa, want ~99800", got[1])
	}
	// Conversion waits must have advanced the virtual clock (5 ms + 8 ms).
	if rt.Now() < 13*time.Millisecond {
		t.Errorf("virtual time = %v, conversions must take 13 ms+", rt.Now())
	}
}

func TestStandardDriverSLoC(t *testing.T) {
	// Table 3 shape: the BMP180 driver is the largest, TMP36 the smallest.
	sloc := map[string]int{}
	for _, sd := range StandardDrivers {
		src, err := Source(sd)
		if err != nil {
			t.Fatal(err)
		}
		sloc[sd.Name] = dsl.SLoC(src)
	}
	if !(sloc["TMP36"] < sloc["ID-20LA RFID"] && sloc["ID-20LA RFID"] < sloc["BMP180 Pressure"]) {
		t.Errorf("SLoC ordering broken: %v", sloc)
	}
	if sloc["TMP36"] > 40 {
		t.Errorf("TMP36 driver = %d SLoC, want small", sloc["TMP36"])
	}
}

func TestDriverSourcesCompileToClaimedIDs(t *testing.T) {
	for _, sd := range StandardDrivers {
		src, err := Source(sd)
		if err != nil {
			t.Fatal(err)
		}
		prog, err := dsl.Compile(src, uint32(sd.ID))
		if err != nil {
			t.Fatalf("%s: %v", sd.Name, err)
		}
		if hw.DeviceID(prog.DeviceID) != sd.ID {
			t.Errorf("%s: device ID %v", sd.Name, hw.DeviceID(prog.DeviceID))
		}
		if !strings.Contains(src, "event init") || !strings.Contains(src, "event destroy") {
			t.Errorf("%s: missing lifecycle handlers", sd.Name)
		}
	}
}

func TestFullRepositoryIncludesExtensions(t *testing.T) {
	repo, err := FullRepository()
	if err != nil {
		t.Fatal(err)
	}
	if got := len(repo.List()); got != 6 {
		t.Fatalf("entries = %d, want 6 (4 standard + 2 extension)", got)
	}
	for _, sd := range ExtendedDrivers {
		e, ok := repo.Lookup(sd.ID)
		if !ok {
			t.Fatalf("missing extension driver %s", sd.Name)
		}
		if e.Status != StatusPermanent {
			t.Errorf("%s must be permanent", sd.Name)
		}
		if len(e.Bytecode) == 0 || len(e.Bytecode) > 1024 {
			t.Errorf("%s bytecode = %d bytes", sd.Name, len(e.Bytecode))
		}
	}
}

func TestExtendedDriverSourcesCompile(t *testing.T) {
	for _, sd := range ExtendedDrivers {
		src, err := Source(sd)
		if err != nil {
			t.Fatal(err)
		}
		prog, err := dsl.Compile(src, uint32(sd.ID))
		if err != nil {
			t.Fatalf("%s: %v", sd.Name, err)
		}
		if err := prog.Verify(); err != nil {
			t.Fatalf("%s: %v", sd.Name, err)
		}
	}
}
