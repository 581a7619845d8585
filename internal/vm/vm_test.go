package vm

import (
	"slices"
	"sort"
	"testing"
	"time"

	"micropnp/internal/bytecode"
	"micropnp/internal/dsl"
)

func compile(t testing.TB, src string, id uint32) *bytecode.Program {
	t.Helper()
	p, err := dsl.Compile(src, id)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// mustImage compiles a program into an image for NewRuntime.
func mustImage(t testing.TB, prog *bytecode.Program) *Image {
	t.Helper()
	img, err := Compile(prog)
	if err != nil {
		t.Fatal(err)
	}
	return img
}

// testClock is the clock a runtime under test runs on: a timer queue
// sorted by due time, stable among timers due at the same instant, that
// settle fires.
type testClock struct {
	now    time.Duration
	timers []testTimer
}

type testTimer struct {
	at time.Duration
	fn func()
}

func (c *testClock) Now() time.Duration { return c.now }

func (c *testClock) Schedule(d time.Duration, fn func()) {
	at := c.now + d
	i := sort.Search(len(c.timers), func(i int) bool { return c.timers[i].at > at })
	c.timers = slices.Insert(c.timers, i, testTimer{at: at, fn: fn})
}

// settle drains rt's event queue, then fires its testClock's timers in due
// order, advancing the clock to each, until none remain.
func settle(rt *Runtime) {
	rt.RunUntilIdle(0)
	c := rt.sched.(*testClock)
	for len(c.timers) > 0 {
		tm := c.timers[0]
		c.timers = c.timers[1:]
		c.now = max(c.now, tm.at)
		tm.fn()
	}
}

const arithDriver = `int32_t acc;

event init():
    acc = 0;

event destroy():
    pass;

event compute(int32_t a, int32_t b):
    acc = (a + b) * 2 - a / b + a % b;

event boom(int32_t a):
    acc = a / 0;

event loop():
    while true:
        acc += 1;

event oob():
    pass;
`

func TestMachineArithmetic(t *testing.T) {
	m, err := NewMachine(compile(t, arithDriver, 1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run("compute", []int32{7, 3}); err != nil {
		t.Fatal(err)
	}
	// (7+3)*2 - 7/3 + 7%3 = 20 - 2 + 1 = 19
	if got := m.Static(0)[0]; got != 19 {
		t.Fatalf("acc = %d, want 19", got)
	}
}

func TestMachineTraps(t *testing.T) {
	m, err := NewMachine(compile(t, arithDriver, 1))
	if err != nil {
		t.Fatal(err)
	}
	_, err = m.Run("boom", []int32{5})
	te, ok := err.(*TrapError)
	if !ok || te.Trap != TrapDivByZero {
		t.Fatalf("want divByZero trap, got %v", err)
	}
	_, err = m.Run("loop", nil)
	te, ok = err.(*TrapError)
	if !ok || te.Trap != TrapFuelExhausted {
		t.Fatalf("want fuel trap, got %v", err)
	}
	if te.Error() == "" {
		t.Error("trap must render")
	}
}

func TestMachineMissingHandlerIsDropped(t *testing.T) {
	m, err := NewMachine(compile(t, arithDriver, 1))
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Run("nonexistent", nil)
	if err != nil || res.Instructions != 0 {
		t.Fatalf("missing handler must be a silent drop, got %v %+v", err, res)
	}
}

func TestMachineIndexTrap(t *testing.T) {
	src := `uint8_t buf[4];

event init():
    pass;

event destroy():
    pass;

event poke(int32_t i):
    buf[i] = 1;
`
	m, err := NewMachine(compile(t, src, 1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run("poke", []int32{3}); err != nil {
		t.Fatal(err)
	}
	_, err = m.Run("poke", []int32{4})
	if te, ok := err.(*TrapError); !ok || te.Trap != TrapIndexRange {
		t.Fatalf("want index trap, got %v", err)
	}
	_, err = m.Run("poke", []int32{-1})
	if te, ok := err.(*TrapError); !ok || te.Trap != TrapIndexRange {
		t.Fatalf("want index trap for negative, got %v", err)
	}
}

func TestRouterFIFOOrder(t *testing.T) {
	r := NewRouter()
	for i := 0; i < 5; i++ {
		r.Post(Event{Name: "e", Args: []int32{int32(i)}})
	}
	for i := 0; i < 5; i++ {
		e, ok := r.Next()
		if !ok || e.Args[0] != int32(i) {
			t.Fatalf("event %d out of order: %+v", i, e)
		}
	}
	if _, ok := r.Next(); ok {
		t.Fatal("router must be empty")
	}
}

func TestRouterErrorsPrioritised(t *testing.T) {
	r := NewRouter()
	r.Post(Event{Name: "regular1"})
	r.Post(Event{Name: "err1", IsError: true})
	r.Post(Event{Name: "regular2"})
	r.Post(Event{Name: "err2", IsError: true})

	var order []string
	for {
		e, ok := r.Next()
		if !ok {
			break
		}
		order = append(order, e.Name)
	}
	want := []string{"err1", "err2", "regular1", "regular2"}
	if !slices.Equal(order, want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
}

func TestAVRTimeModel(t *testing.T) {
	m := DefaultAVRTimeModel
	push := m.InstructionCost(1, 0)
	if push < 20*time.Microsecond || push > 30*time.Microsecond {
		t.Errorf("push-ish instruction = %v", push)
	}
	// The average instruction must land near the paper's 39.7 µs: estimate
	// over a representative mix (1 push ops, 2pop+1push ALU ops, stores).
	mix := []struct{ pushes, pops int }{
		{1, 0}, {1, 0}, {0, 1}, {1, 2}, {1, 2}, {1, 2}, {0, 1}, {1, 1},
	}
	var total time.Duration
	for _, op := range mix {
		total += m.InstructionCost(op.pushes, op.pops)
	}
	avg := total / time.Duration(len(mix))
	if avg < 30*time.Microsecond || avg > 50*time.Microsecond {
		t.Errorf("average instruction cost = %v, want ≈39.7 µs", avg)
	}
}

const counterDriver = `int32_t n;

event init():
    n = 0;

event destroy():
    pass;

event bump():
    n++;
    signal this.bumped();

event bumped():
    pass;

event read():
    return n;

error divByZero():
    n = -1;

event boom():
    n = 1 / 0;
`

func TestRuntimeLifecycleAndReturn(t *testing.T) {
	rt, err := NewRuntime(mustImage(t, compile(t, counterDriver, 2)), &testClock{})
	if err != nil {
		t.Fatal(err)
	}
	var returned [][]int32
	rt.OnReturn(func(v []int32) { returned = append(returned, v) })

	rt.Start()
	rt.Post("bump")
	rt.Post("bump")
	rt.Post("read")
	rt.RunUntilIdle(0)

	if len(returned) != 1 || returned[0][0] != 2 {
		t.Fatalf("returned = %v, want [[2]]", returned)
	}
	if rt.Dispatches == 0 || rt.EmulatedTime == 0 {
		t.Error("runtime must account dispatches and emulated time")
	}
	rt.Stop()
}

func TestRuntimeTrapBecomesErrorEvent(t *testing.T) {
	rt, err := NewRuntime(mustImage(t, compile(t, counterDriver, 2)), &testClock{})
	if err != nil {
		t.Fatal(err)
	}
	rt.Start()
	rt.Post("boom")
	rt.RunUntilIdle(0)
	// The divByZero trap must have dispatched the driver's error handler.
	if got := rt.Machine().Static(0)[0]; got != -1 {
		t.Fatalf("n = %d, want -1 (set by divByZero error handler)", got)
	}
	if rt.Traps != 1 {
		t.Errorf("traps = %d", rt.Traps)
	}
}

func TestRuntimeMissingLibrary(t *testing.T) {
	src := `import uart;

event init():
    pass;

event destroy():
    pass;
`
	if _, err := NewRuntime(mustImage(t, compile(t, src, 3)), &testClock{}); err == nil {
		t.Fatal("missing library must fail")
	}
}

func TestTimerLibrary(t *testing.T) {
	src := `import timer;

int32_t fired;

event init():
    fired = 0;
    signal timer.start(250);

event destroy():
    pass;

event timerFired():
    fired = 1;
`
	rt, err := NewRuntime(mustImage(t, compile(t, src, 4)), &testClock{}, &TimerLib{})
	if err != nil {
		t.Fatal(err)
	}
	rt.Start()
	settle(rt)
	if got := rt.Machine().Static(0)[0]; got != 1 {
		t.Fatalf("fired = %d, want 1", got)
	}
	if rt.Now() < 250*time.Millisecond {
		t.Fatalf("virtual clock = %v, must have advanced past the timer", rt.Now())
	}
}
