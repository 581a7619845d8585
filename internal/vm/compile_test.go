package vm

import (
	"math/rand"
	"strings"
	"testing"
	"time"

	"micropnp/internal/bytecode"
	"micropnp/internal/driver"
	"micropnp/internal/dsl"
)

// enginePair loads the same program into two machines with separate
// static state: Run drives the first, the interpRun oracle the second.
func enginePair(t testing.TB, prog *bytecode.Program) (compiled, interp *Machine) {
	t.Helper()
	mc, err := NewMachine(prog)
	if err != nil {
		t.Fatal(err)
	}
	mi, err := NewMachine(prog)
	if err != nil {
		t.Fatal(err)
	}
	return mc, mi
}

// runBoth executes one event on both engines and fails on any transcript
// divergence: the full RunResult, the error (trap kind, handler, PC), and
// the complete static state afterwards.
func runBoth(t testing.TB, mc, mi *Machine, name string, args []int32) (RunResult, error) {
	t.Helper()
	rc, ec := mc.Run(name, args)
	ri, ei := interpRun(mi, name, args)
	diffResults(t, name, args, rc, ec, ri, ei)
	for s := 0; s < mc.NumStatics(); s++ {
		c, i := mc.staticRef(s), mi.staticRef(s)
		if len(c) != len(i) {
			t.Fatalf("%s%v: static %d length diverged: compiled %d, interp %d", name, args, s, len(c), len(i))
		}
		for j := range c {
			if c[j] != i[j] {
				t.Fatalf("%s%v: static %d[%d] diverged: compiled %d, interp %d", name, args, s, j, c[j], i[j])
			}
		}
	}
	return rc, ec
}

// diffResults asserts two engine transcripts are identical.
func diffResults(t testing.TB, name string, args []int32, rc RunResult, ec error, ri RunResult, ei error) {
	t.Helper()
	if (ec == nil) != (ei == nil) {
		t.Fatalf("%s%v: error diverged: compiled %v, interp %v", name, args, ec, ei)
	}
	if ec != nil {
		tc, okc := ec.(*TrapError)
		ti, oki := ei.(*TrapError)
		if !okc || !oki {
			t.Fatalf("%s%v: non-trap error: compiled %v, interp %v", name, args, ec, ei)
		}
		if *tc != *ti {
			t.Fatalf("%s%v: trap diverged: compiled %+v, interp %+v", name, args, *tc, *ti)
		}
	}
	if rc.HasReturn != ri.HasReturn {
		t.Fatalf("%s%v: HasReturn diverged: compiled %v, interp %v", name, args, rc.HasReturn, ri.HasReturn)
	}
	if len(rc.Returned) != len(ri.Returned) {
		t.Fatalf("%s%v: Returned length diverged: compiled %v, interp %v", name, args, rc.Returned, ri.Returned)
	}
	for i := range rc.Returned {
		if rc.Returned[i] != ri.Returned[i] {
			t.Fatalf("%s%v: Returned diverged: compiled %v, interp %v", name, args, rc.Returned, ri.Returned)
		}
	}
	if rc.Instructions != ri.Instructions {
		t.Fatalf("%s%v: Instructions diverged: compiled %d, interp %d", name, args, rc.Instructions, ri.Instructions)
	}
	if rc.EmulatedTime != ri.EmulatedTime {
		t.Fatalf("%s%v: EmulatedTime diverged: compiled %v, interp %v", name, args, rc.EmulatedTime, ri.EmulatedTime)
	}
	if len(rc.Signals) != len(ri.Signals) {
		t.Fatalf("%s%v: signal count diverged: compiled %d, interp %d", name, args, len(rc.Signals), len(ri.Signals))
	}
	for i := range rc.Signals {
		sc, si := rc.Signals[i], ri.Signals[i]
		if sc.Dest != si.Dest || sc.Event != si.Event || len(sc.Args) != len(si.Args) {
			t.Fatalf("%s%v: signal %d diverged: compiled %+v, interp %+v", name, args, i, sc, si)
		}
		for j := range sc.Args {
			if sc.Args[j] != si.Args[j] {
				t.Fatalf("%s%v: signal %d args diverged: compiled %v, interp %v", name, args, i, sc.Args, si.Args)
			}
		}
	}
}

// embeddedDrivers lists the six shipped drivers.
func embeddedDrivers() []driver.StandardDriver {
	return append(append([]driver.StandardDriver{}, driver.StandardDrivers...), driver.ExtendedDrivers...)
}

// embeddedPrograms compiles all six shipped drivers from their DSL source.
func embeddedPrograms(t testing.TB) map[string]*bytecode.Program {
	t.Helper()
	out := map[string]*bytecode.Program{}
	for _, sd := range embeddedDrivers() {
		src, err := driver.Source(sd)
		if err != nil {
			t.Fatal(err)
		}
		prog, err := dsl.Compile(src, uint32(sd.ID))
		if err != nil {
			t.Fatalf("compiling %s: %v", sd.Name, err)
		}
		out[sd.Name] = prog
	}
	if len(out) != 6 {
		t.Fatalf("expected the 6 embedded drivers, got %d", len(out))
	}
	return out
}

// TestCompiledMatchesInterpreterEmbeddedDrivers runs every handler of every
// embedded driver through both engines with randomized argument vectors and
// asserts full transcript bit-identity, including the evolving static state
// across multiple passes.
func TestCompiledMatchesInterpreterEmbeddedDrivers(t *testing.T) {
	for name, prog := range embeddedPrograms(t) {
		t.Run(name, func(t *testing.T) {
			mc, mi := enginePair(t, prog)
			rng := rand.New(rand.NewSource(42))
			for pass := 0; pass < 8; pass++ {
				for _, h := range prog.Handlers {
					args := make([]int32, h.NParams)
					for i := range args {
						switch pass % 3 {
						case 0:
							args[i] = rng.Int31n(1024)
						case 1:
							args[i] = rng.Int31() - 1<<30
						default:
							args[i] = int32(rng.Intn(3)) // exercise zero divisors/indices
						}
					}
					runBoth(t, mc, mi, h.Name, args)
				}
			}
		})
	}
}

// TestTrapParity is the trap table: each runtime fault kind must surface as
// the identical TrapError{Trap, Handler, PC} after the identical instruction
// count on both engines.
func TestTrapParity(t *testing.T) {
	mkProg := func(build func(a *bytecode.Assembler)) *bytecode.Program {
		a := bytecode.NewAssembler()
		build(a)
		code, err := a.Assemble()
		if err != nil {
			t.Fatal(err)
		}
		ret := []byte{byte(bytecode.OpReturnVoid)}
		return &bytecode.Program{
			DeviceID: 1,
			Statics:  []bytecode.StaticDef{{Size: 1}, {Size: 4}},
			Consts:   []string{"this", "ev"},
			Handlers: []bytecode.Handler{
				{Name: "init", Code: ret},
				{Name: "destroy", Code: ret},
				{Name: "boom", NParams: 2, Code: code},
			},
		}
	}
	cases := []struct {
		name string
		trap Trap
		fuel int
		prog *bytecode.Program
	}{
		{
			name: "fuel exhaustion mid-loop",
			trap: TrapFuelExhausted,
			fuel: 100,
			prog: mkProg(func(a *bytecode.Assembler) {
				a.Label("top")
				a.Emit(bytecode.OpLoadStatic, 0)
				a.Push(1)
				a.Emit(bytecode.OpAdd)
				a.Emit(bytecode.OpStoreStatic, 0)
				a.Jump(bytecode.OpJmp, "top")
			}),
		},
		{
			name: "stack overflow",
			trap: TrapStackOverflow,
			prog: mkProg(func(a *bytecode.Assembler) {
				for i := 0; i < 70; i++ { // maxStack is 64
					a.Push(int32(i))
				}
				a.Emit(bytecode.OpReturnVoid)
			}),
		},
		{
			name: "stack underflow",
			trap: TrapStackOverflow,
			prog: mkProg(func(a *bytecode.Assembler) {
				a.Emit(bytecode.OpDrop)
			}),
		},
		{
			// Dup declares pops=0 in stackEffect, so the empty-stack read
			// is caught by a dedicated in-op check rather than the generic
			// bound; both engines must agree it traps (found by fuzzing).
			name: "dup on empty stack",
			trap: TrapStackOverflow,
			prog: mkProg(func(a *bytecode.Assembler) {
				a.Emit(bytecode.OpDup)
			}),
		},
		{
			name: "div by zero",
			trap: TrapDivByZero,
			prog: mkProg(func(a *bytecode.Assembler) {
				a.Emit(bytecode.OpLoadLocal, 0)
				a.Emit(bytecode.OpLoadLocal, 1)
				a.Emit(bytecode.OpDiv)
				a.Emit(bytecode.OpReturnTop)
			}),
		},
		{
			name: "mod by zero",
			trap: TrapDivByZero,
			prog: mkProg(func(a *bytecode.Assembler) {
				a.Push(7)
				a.Push(0)
				a.Emit(bytecode.OpMod)
				a.Emit(bytecode.OpReturnTop)
			}),
		},
		{
			name: "index out of range load",
			trap: TrapIndexRange,
			prog: mkProg(func(a *bytecode.Assembler) {
				a.Emit(bytecode.OpLoadLocal, 0)
				a.Emit(bytecode.OpLoadElem, 1)
				a.Emit(bytecode.OpReturnTop)
			}),
		},
		{
			name: "index out of range store",
			trap: TrapIndexRange,
			prog: mkProg(func(a *bytecode.Assembler) {
				a.Push(9) // index past the 4-element slot
				a.Push(1) // value
				a.Emit(bytecode.OpStoreElem, 1)
				a.Emit(bytecode.OpReturnVoid)
			}),
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			mc, mi := enginePair(t, tc.prog)
			if tc.fuel != 0 {
				mc.Fuel, mi.Fuel = tc.fuel, tc.fuel
			}
			// Args chosen so div/index cases actually fault: locals 0,1 = 5,0.
			res, err := runBoth(t, mc, mi, "boom", []int32{5, 0})
			te, ok := err.(*TrapError)
			if !ok {
				t.Fatalf("expected a trap, got err=%v result=%+v", err, res)
			}
			if te.Trap != tc.trap || te.Handler != "boom" {
				t.Fatalf("expected trap %s in boom, got %+v", tc.trap, te)
			}
			if res.Instructions == 0 {
				t.Fatal("trap reported before any instruction executed")
			}
		})
	}
}

// TestCompileLowersEveryValidOpcode checks that the compiler has a form for
// every opcode of the ISA, so a verified program never fails to lower, and
// that an opcode it does not know is an error naming the handler and PC
// rather than a silent fallback.
func TestCompileLowersEveryValidOpcode(t *testing.T) {
	prog := &bytecode.Program{
		DeviceID: 1,
		Statics:  []bytecode.StaticDef{{Size: 1}},
		Consts:   []string{"this", "ev"},
	}
	for op := bytecode.Op(0); op.Valid(); op++ {
		h := &bytecode.Handler{Name: op.String(), Code: make([]byte, 1+op.OperandWidth())}
		h.Code[0] = byte(op)
		if _, err := compileHandler(prog, h); err != nil {
			t.Errorf("%s does not lower: %v", op, err)
		}
	}

	bad := &bytecode.Handler{Name: "init", Code: []byte{byte(bytecode.OpNop), 0xEE}}
	_, err := compileHandler(prog, bad)
	if err == nil {
		t.Fatal("compileHandler accepted opcode 0xee")
	}
	for _, want := range []string{`"init"`, "0xee", "pc 1"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not name %s", err, want)
		}
	}
}

// TestCompiledZeroAllocRun asserts the scratch-backed RunResult contract: a
// signal-free compute handler runs allocation-free after the scratch warms
// up.
func TestCompiledZeroAllocRun(t *testing.T) {
	m, err := NewMachine(compile(t, arithDriver, 1))
	if err != nil {
		t.Fatal(err)
	}
	args := []int32{40, 4}
	m.Run("compute", args) // warm the scratch
	n := testing.AllocsPerRun(100, func() {
		if _, err := m.Run("compute", args); err != nil {
			t.Fatal(err)
		}
	})
	if n != 0 {
		t.Errorf("%v allocs per Run, want 0", n)
	}
}

// TestStaticRefNoCopy pins the no-copy accessor the differential harness
// depends on: it must alias the live slot, not snapshot it.
func TestStaticRefNoCopy(t *testing.T) {
	prog := compile(t, arithDriver, 1)
	m, err := NewMachine(prog)
	if err != nil {
		t.Fatal(err)
	}
	ref := m.staticRef(0)
	if ref == nil {
		t.Fatal("staticRef(0) = nil")
	}
	if _, err := m.Run("compute", []int32{21, 3}); err != nil {
		t.Fatal(err)
	}
	if cp := m.Static(0); cp[0] != ref[0] {
		t.Fatalf("staticRef did not alias live state: ref %d, copy %d", ref[0], cp[0])
	}
	if m.staticRef(-1) != nil || m.staticRef(m.NumStatics()) != nil {
		t.Fatal("out-of-range staticRef must return nil")
	}
	n := testing.AllocsPerRun(100, func() { _ = m.staticRef(0) })
	if n != 0 {
		t.Errorf("staticRef allocates (%v allocs), defeating its purpose", n)
	}
}

// TestCompiledSignalOrderAndArgs drives a multi-signal handler through both
// engines and also sanity-checks the compiled transcript against literal
// expectations (not just against the oracle).
func TestCompiledSignalOrderAndArgs(t *testing.T) {
	const src = `import adc;

int32_t n;

event init():
    n = 0;

event destroy():
    pass;

event first(int32_t a, int32_t b):
    pass;

event second(int32_t s):
    pass;

event burst(int32_t a, int32_t b):
    signal this.first(a, b);
    signal adc.read();
    signal this.second(a + b);
    n = n + 1;
`
	prog := compile(t, src, 1)
	mc, mi := enginePair(t, prog)
	res, err := runBoth(t, mc, mi, "burst", []int32{7, 8})
	if err != nil {
		t.Fatal(err)
	}
	want := []struct {
		dest, event string
		args        []int32
	}{
		{"this", "first", []int32{7, 8}},
		{"adc", "read", nil},
		{"this", "second", []int32{15}},
	}
	if len(res.Signals) != len(want) {
		t.Fatalf("got %d signals, want %d", len(res.Signals), len(want))
	}
	for i, w := range want {
		s := res.Signals[i]
		if s.Dest != w.dest || s.Event != w.event || len(s.Args) != len(w.args) {
			t.Fatalf("signal %d = %+v, want %+v", i, s, w)
		}
		for j := range w.args {
			if s.Args[j] != w.args[j] {
				t.Fatalf("signal %d args = %v, want %v", i, s.Args, w.args)
			}
		}
	}
}

// TestRuntimeEnginesConverge runs the full Runtime dispatch loop (router,
// error events, emulated-time accounting) over every embedded driver and
// compares the counters a Thing observes with the values both engines
// produced when a Runtime could still be pinned to the interpreter. A change
// to the compiled engine that moves them shows here, at the Runtime level.
func TestRuntimeEnginesConverge(t *testing.T) {
	type counters struct {
		dispatches, traps int
		emulated          time.Duration
	}
	want := map[string]counters{
		"ADXL345 Accelerometer": {4, 0, 1031160},
		"BMP180 Pressure":       {4, 0, 771160},
		"HIH-4030":              {4, 0, 611160},
		"ID-20LA RFID":          {4, 0, 807160},
		"PCF8574 Relay Bank":    {4, 0, 575160},
		"TMP36":                 {4, 0, 611160},
	}
	for name, prog := range embeddedPrograms(t) {
		t.Run(name, func(t *testing.T) {
			rt, err := NewRuntime(mustImage(t, prog), &testClock{}, stubLibsFor(prog)...)
			if err != nil {
				t.Fatal(err)
			}
			rt.Start()
			rt.Post("read")
			rt.RunUntilIdle(0)
			rt.Post("read", 1)
			rt.RunUntilIdle(0)
			rt.Stop()
			got := counters{rt.Dispatches, rt.Traps, rt.EmulatedTime}
			if w, ok := want[name]; !ok || got != w {
				t.Fatalf("runtime counters %+v, want %+v", got, w)
			}
		})
	}
}

// stubLib satisfies any library import without touching hardware models:
// invokes are swallowed, so only the VM-side transcript is compared.
type stubLib struct{ name string }

func (l *stubLib) Name() string           { return l.name }
func (l *stubLib) Attach(*Runtime)        {}
func (l *stubLib) Invoke(string, []int32) {}
func (l *stubLib) Detach()                {}
func stubLibsFor(p *bytecode.Program) []Library {
	libs := make([]Library, 0, len(p.Imports))
	for _, imp := range p.Imports {
		libs = append(libs, &stubLib{name: imp})
	}
	return libs
}
