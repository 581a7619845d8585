package vm

import (
	"testing"

	"micropnp/internal/bus"
	"micropnp/internal/dsl"
)

// rfidDriver is the Listing 1 driver (ID-20LA RFID reader) compiled from the
// DSL and run against the simulated UART peripheral — the full §4 pipeline.
const rfidDriver = `import uart;

uint8_t idx, rfid[12];
bool busy;

event init():
    signal uart.init(9600, USART_PARITY_NONE, USART_STOP_BITS_1, USART_DATA_BITS_8);
    idx = 0;
    busy = false;

event destroy():
    signal uart.reset();

event read():
    if !busy:
        busy = true;
        signal uart.read();

event newdata(char c):
    if !(c==0x0d or c==0x0a or c==0x02 or c==0x03):
        rfid[idx++] = c;
    if idx == 12:
        signal this.readDone();

event readDone():
    busy = false;
    idx = 0;
    return rfid;

error invalidConfiguration():
    signal this.destroy();

error uartInUse():
    signal this.destroy();

error timeOut():
    busy = false;
    idx = 0;
`

func newRFIDRuntime(t *testing.T) (*Runtime, *bus.ID20LA, *bus.UART) {
	t.Helper()
	prog, err := dsl.Compile(rfidDriver, 0xed3f0ac1)
	if err != nil {
		t.Fatal(err)
	}
	port := bus.NewUART()
	rt, err := NewRuntime(mustImage(t, prog), &testClock{}, &UARTLib{Port: port}, &TimerLib{})
	if err != nil {
		t.Fatal(err)
	}
	return rt, bus.NewID20LA(port), port
}

func TestRFIDReadEndToEnd(t *testing.T) {
	rt, reader, port := newRFIDRuntime(t)
	var returned [][]int32
	rt.OnReturn(func(v []int32) { returned = append(returned, v) })

	rt.Start()
	if _, open := port.Config(); !open {
		t.Fatal("init must open the UART")
	}
	cfg, _ := port.Config()
	if cfg.Baud != 9600 || cfg.DataBits != 8 || cfg.StopBits != 1 {
		t.Fatalf("uart config = %+v", cfg)
	}

	// Remote read request arrives, then a card enters the field.
	rt.Post("read")
	rt.Step() // dispatch read -> arms the uart
	if err := reader.PresentCard("0415AB96C3"); err != nil {
		t.Fatal(err)
	}
	settle(rt)

	if len(returned) != 1 {
		t.Fatalf("returned %d values, want 1", len(returned))
	}
	got := make([]byte, len(returned[0]))
	for i, v := range returned[0] {
		got[i] = byte(v)
	}
	if string(got[:10]) != "0415AB96C3" {
		t.Fatalf("card ID = %q", got[:10])
	}
	if !bus.ChecksumOK(got) {
		t.Fatal("returned payload must pass the ID-20LA checksum")
	}
	// busy must have been cleared by readDone.
	if rt.Machine().Static(2)[0] != 0 {
		t.Fatal("busy flag must clear after readDone")
	}
}

func TestRFIDReadTimeout(t *testing.T) {
	rt, _, _ := newRFIDRuntime(t)
	rt.Start()
	rt.Post("read")
	settle(rt) // no card presented: virtual clock hits the timeout

	// The timeOut error handler must have reset busy and idx.
	if rt.Machine().Static(2)[0] != 0 {
		t.Fatal("busy must be reset by the timeOut handler")
	}
	if rt.Machine().Static(0)[0] != 0 {
		t.Fatal("idx must be reset by the timeOut handler")
	}
	// A later read must work again.
	var returned [][]int32
	rt.OnReturn(func(v []int32) { returned = append(returned, v) })
	rt.Post("read")
	rt.Step()
	reader := bus.NewID20LA(portOf(rt))
	if err := reader.PresentCard("AA00FF1234"); err != nil {
		t.Fatal(err)
	}
	settle(rt)
	if len(returned) != 1 {
		t.Fatalf("read after timeout returned %d values", len(returned))
	}
}

// portOf digs the UART out of the runtime's library set (test helper).
func portOf(rt *Runtime) *bus.UART {
	return rt.libs["uart"].(*UARTLib).Port
}

func TestRFIDBusyIgnoresConcurrentReads(t *testing.T) {
	rt, reader, _ := newRFIDRuntime(t)
	var returned [][]int32
	rt.OnReturn(func(v []int32) { returned = append(returned, v) })
	rt.Start()

	rt.Post("read")
	rt.Post("read") // second read while busy: driver must ignore it
	rt.Step()
	rt.Step()
	if err := reader.PresentCard("0415AB96C3"); err != nil {
		t.Fatal(err)
	}
	settle(rt)
	if len(returned) != 1 {
		t.Fatalf("returned %d values, want exactly 1", len(returned))
	}
}

func TestRFIDDestroyResetsUART(t *testing.T) {
	rt, _, port := newRFIDRuntime(t)
	rt.Start()
	rt.Stop()
	if _, open := port.Config(); open {
		t.Fatal("destroy must reset the UART to platform defaults")
	}
}

func TestUARTInvalidConfiguration(t *testing.T) {
	src := `import uart;

int32_t dead;

event init():
    signal uart.init(42, USART_PARITY_NONE, USART_STOP_BITS_1, USART_DATA_BITS_8);

event destroy():
    signal uart.reset();

error invalidConfiguration():
    dead = 1;
`
	prog, err := dsl.Compile(src, 5)
	if err != nil {
		t.Fatal(err)
	}
	rt, err := NewRuntime(mustImage(t, prog), &testClock{}, &UARTLib{Port: bus.NewUART()})
	if err != nil {
		t.Fatal(err)
	}
	rt.Start()
	if rt.Machine().Static(0)[0] != 1 {
		t.Fatal("invalidConfiguration error handler must run for a 42-baud init")
	}
}

func TestUARTInUse(t *testing.T) {
	src := `import uart;

int32_t conflicts;

event init():
    signal uart.init(9600, USART_PARITY_NONE, USART_STOP_BITS_1, USART_DATA_BITS_8);
    signal uart.init(9600, USART_PARITY_NONE, USART_STOP_BITS_1, USART_DATA_BITS_8);

event destroy():
    signal uart.reset();

error uartInUse():
    conflicts++;
`
	prog, err := dsl.Compile(src, 6)
	if err != nil {
		t.Fatal(err)
	}
	rt, err := NewRuntime(mustImage(t, prog), &testClock{}, &UARTLib{Port: bus.NewUART()})
	if err != nil {
		t.Fatal(err)
	}
	rt.Start()
	if rt.Machine().Static(0)[0] != 1 {
		t.Fatal("second init on an open port must raise uartInUse")
	}
}
