package vm

import (
	"testing"
	"time"

	"micropnp/internal/bus"
	"micropnp/internal/dsl"
)

// driverRT compiles src and builds a runtime over the given libraries.
func driverRT(t *testing.T, src string, libs ...Library) *Runtime {
	t.Helper()
	prog, err := dsl.Compile(src, 0x42)
	if err != nil {
		t.Fatal(err)
	}
	rt, err := NewRuntime(mustImage(t, prog), &testClock{}, libs...)
	if err != nil {
		t.Fatal(err)
	}
	return rt
}

func TestADCLibFaultOnFloatingInput(t *testing.T) {
	src := `import adc;

int32_t faults;

event init():
    signal adc.read();

event destroy():
    pass;

event sample(uint16_t v):
    pass;

error adcFault():
    faults++;
`
	rt := driverRT(t, src, &ADCLib{ADC: bus.NewADC()}) // nothing connected
	rt.Start()
	if rt.Machine().Static(0)[0] != 1 {
		t.Fatal("floating ADC input must raise adcFault")
	}
}

func TestADCLibDeliversSample(t *testing.T) {
	src := `import adc;

int32_t got;

event init():
    signal adc.read();

event destroy():
    pass;

event sample(uint16_t v):
    got = v;
`
	env := bus.NewEnvironment()
	env.Set(25, 40, 101_325)
	adc := bus.NewADC()
	adc.Connect(&bus.TMP36{Env: env})
	rt := driverRT(t, src, &ADCLib{ADC: adc})
	rt.Start()
	if got := rt.Machine().Static(0)[0]; got < 230 || got > 235 {
		t.Fatalf("sample = %d, want ~232", got)
	}
}

func TestI2CLibNackPaths(t *testing.T) {
	src := `import i2c;

int32_t nacks;

event init():
    # no device at 0x55
    signal i2c.read(0x55, 0x00, 1);
    # malformed: n out of range
    signal i2c.read(0x77, 0x00, 9);
    signal i2c.write(0x55, 0x00, 1, 1);

event destroy():
    pass;

event i2cdata(int32_t value, int32_t n):
    pass;

event i2cack():
    pass;

error i2cNack():
    nacks++;
`
	rt := driverRT(t, src, &I2CLib{Bus: bus.NewI2C()})
	rt.Start()
	if got := rt.Machine().Static(0)[0]; got != 3 {
		t.Fatalf("nacks = %d, want 3", got)
	}
}

func TestI2CLibPacksBigEndian(t *testing.T) {
	src := `import i2c;

int32_t got, count;

event init():
    signal i2c.read(0x77, 0xAA, 2);

event destroy():
    pass;

event i2cdata(int32_t value, int32_t n):
    got = value;
    count = n;
`
	env := bus.NewEnvironment()
	i2c := bus.NewI2C()
	if err := i2c.Attach(bus.NewBMP180(env)); err != nil {
		t.Fatal(err)
	}
	rt := driverRT(t, src, &I2CLib{Bus: i2c})
	rt.Start()
	// Calibration register 0xAA holds AC1 = 408 big-endian.
	if got := rt.Machine().Static(0)[0]; got != 408 {
		t.Fatalf("value = %d, want 408", got)
	}
	if n := rt.Machine().Static(1)[0]; n != 2 {
		t.Fatalf("n = %d, want 2", n)
	}
}

func TestSPILibTransferAndFaults(t *testing.T) {
	src := `import spi;

int32_t got, faults;

event init():
    signal spi.transfer(0x0102, 2);
    signal spi.transfer(0x01, 9);

event destroy():
    pass;

event spidata(int32_t value, int32_t n):
    got = value;

error spiFault():
    faults++;
`
	s := bus.NewSPI()
	s.Connect(spiEchoInv{})
	rt := driverRT(t, src, &SPILib{Bus: s})
	rt.Start()
	// Echo-inverted: out [0x01 0x02] -> in [0xFE 0xFD] -> 0xFEFD.
	if got := rt.Machine().Static(0)[0]; got != 0xFEFD {
		t.Fatalf("spidata value = %#x, want 0xFEFD", got)
	}
	if f := rt.Machine().Static(1)[0]; f != 1 {
		t.Fatalf("faults = %d, want 1 (n out of range)", f)
	}

	// Disconnected slave also faults.
	s.Connect(nil)
	rt.Post("init")
	rt.RunUntilIdle(0)
	if f := rt.Machine().Static(1)[0]; f < 2 {
		t.Fatalf("faults = %d, want >= 2 after disconnect", f)
	}
}

type spiEchoInv struct{}

func (spiEchoInv) Transfer(out []byte) []byte {
	in := make([]byte, len(out))
	for i, b := range out {
		in[i] = ^b
	}
	return in
}

func TestExternalSchedulerDrivesTimers(t *testing.T) {
	src := `import timer;

int32_t fired;

event init():
    signal timer.start(100);

event destroy():
    pass;

event timerFired():
    fired++;
`
	clock := &testClock{}
	prog, err := dsl.Compile(src, 7)
	if err != nil {
		t.Fatal(err)
	}
	rt, err := NewRuntime(mustImage(t, prog), clock, &TimerLib{})
	if err != nil {
		t.Fatal(err)
	}
	rt.Start()

	if rt.Machine().Static(0)[0] != 0 {
		t.Fatal("timer must not fire before the clock advances")
	}
	if len(clock.timers) != 1 || clock.timers[0].at != 100*time.Millisecond {
		t.Fatalf("scheduled = %+v", clock.timers)
	}
	settle(rt)
	if rt.Machine().Static(0)[0] != 1 {
		t.Fatal("timer must fire when the clock reaches it")
	}
	if rt.Now() != 100*time.Millisecond {
		t.Fatalf("Now() = %v, must follow the clock", rt.Now())
	}
}

func TestUARTWriteAndWriteDone(t *testing.T) {
	src := `import uart;

int32_t done;

event init():
    signal uart.init(9600, USART_PARITY_NONE, USART_STOP_BITS_1, USART_DATA_BITS_8);
    signal uart.write(0x41);

event destroy():
    signal uart.reset();

event writeDone():
    done++;
`
	port := bus.NewUART()
	var devGot []byte
	port.OnDeviceReceive(func(b byte) { devGot = append(devGot, b) })
	rt := driverRT(t, src, &UARTLib{Port: port})
	rt.Start()
	if rt.Machine().Static(0)[0] != 1 {
		t.Fatal("writeDone must fire")
	}
	if len(devGot) != 1 || devGot[0] != 0x41 {
		t.Fatalf("device received % x", devGot)
	}
}

func TestLibrariesFor(t *testing.T) {
	libs := LibrariesFor(bus.NewUART(), bus.NewADC(), bus.NewI2C(), bus.NewSPI())
	if len(libs) != 5 { // 4 buses + timer
		t.Fatalf("libs = %d", len(libs))
	}
	names := map[string]bool{}
	for _, l := range libs {
		names[l.Name()] = true
	}
	for _, want := range []string{"uart", "adc", "i2c", "spi", "timer"} {
		if !names[want] {
			t.Errorf("missing library %q", want)
		}
	}
	if got := LibrariesFor(nil, nil, nil, nil); len(got) != 1 {
		t.Fatalf("nil buses must yield only the timer, got %d", len(got))
	}
}
