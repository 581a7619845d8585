package vm

import (
	"fmt"
	"time"

	"micropnp/internal/bytecode"
)

// Trap identifies a runtime fault raised by a handler run. Traps become
// error events (the µPnP DSL models I/O and runtime errors uniformly).
type Trap string

// Trap kinds.
const (
	TrapDivByZero     Trap = "divByZero"
	TrapStackOverflow Trap = "stackOverflow"
	TrapIndexRange    Trap = "indexOutOfBounds"
	TrapFuelExhausted Trap = "fuelExhausted"
	TrapBadBytecode   Trap = "badBytecode"
)

// TrapError wraps a trap with its context.
type TrapError struct {
	Trap    Trap
	Handler string
	PC      int
}

func (e *TrapError) Error() string {
	return fmt.Sprintf("vm: trap %s in handler %q at pc %d", e.Trap, e.Handler, e.PC)
}

// Signal is an event emission recorded during a handler run. Signals are
// queued and processed after the handler completes, preserving
// run-to-completion atomicity.
type Signal struct {
	Dest  string
	Event string
	Args  []int32
}

// RunResult reports one handler execution.
type RunResult struct {
	// HasReturn is set when the handler executed a return with a value;
	// Returned holds the value(s) — one element for scalars, the whole
	// slot for array returns.
	HasReturn bool
	Returned  []int32
	// Signals emitted, in program order. Signals, Returned and each
	// Signal.Args are backed by per-Machine scratch: they are valid until
	// the next Run on the same Machine and must be copied to be retained.
	Signals []Signal
	// Instructions executed.
	Instructions int
	// EmulatedTime is the cost of the run under the AVR time model.
	EmulatedTime time.Duration
}

// maxStack bounds a handler run's operand stack, in cells.
const maxStack = 64

// Machine executes the handlers of one installed driver. It is built from
// an Image (Image.Instantiate, or NewMachine for a bare Program) and owns
// only the driver's static state and its run scratch; the program and the
// compiled handlers are the image's, shared with every sibling machine. A
// Machine is not safe for concurrent use; the event router serialises
// handler executions (handlers are atomic). Machines of one Image run
// concurrently without coordination.
//
// Handlers run in the pre-decoded direct-threaded form Compile builds (see
// compile.go). The bytecode interpreter survives only as the test oracle in
// interp_test.go, which the compiled engine must match in every observable:
// trap kind/PC, instruction count, emulated time, signal order and the
// scratch-backed RunResult contract.
type Machine struct {
	img     *Image
	statics [][]int32

	// Fuel bounds instructions per handler run (default 100000); handlers
	// run to completion, so unbounded loops are a driver bug surfaced as a
	// trap rather than a wedged runtime.
	Fuel int

	// scratch is the operand stack. A Machine is single-threaded and
	// handlers run to completion without re-entering Run (native libraries
	// post events instead of calling back), so one stack per machine
	// suffices and keeps Run allocation-free.
	scratch [maxStack]int32
	// sigScratch and retScratch back RunResult.Signals and .Returned the
	// same way: the result's slices are valid until the next Run.
	sigScratch []Signal
	retScratch []int32
	// argArena backs Signal.Args: like Signals itself, Args are valid only
	// until the next Run; copy what you keep. argOff is the bump-allocation
	// watermark, reset per Run.
	argArena []int32
	argOff   int
}

// argAlloc carves an n-cell Signal.Args slot out of the arena. When the
// arena is exhausted it is replaced, not grown in place: slices already
// handed out this run keep pointing into the old array, which still holds
// their data. Slots are capacity-clamped so an appending caller cannot
// clobber a neighbouring signal's args.
func (m *Machine) argAlloc(n int) []int32 {
	if len(m.argArena)-m.argOff < n {
		sz := 256
		if n > sz {
			sz = n
		}
		m.argArena = make([]int32, sz)
		m.argOff = 0
	}
	s := m.argArena[m.argOff : m.argOff+n : m.argOff+n]
	m.argOff += n
	return s
}

// NewMachine verifies and compiles a driver program (Compile) and
// instantiates one machine over the image.
func NewMachine(prog *bytecode.Program) (*Machine, error) {
	img, err := Compile(prog)
	if err != nil {
		return nil, err
	}
	return img.Instantiate(), nil
}

// Program returns the loaded driver.
func (m *Machine) Program() *bytecode.Program { return m.img.prog }

// Image returns the image the machine was instantiated from.
func (m *Machine) Image() *Image { return m.img }

// Static returns a copy of a static slot (for tests and diagnostics).
func (m *Machine) Static(i int) []int32 {
	if i < 0 || i >= len(m.statics) {
		return nil
	}
	return append([]int32(nil), m.statics[i]...)
}

// staticRef returns a static slot without copying. The differential
// harness compares the full static state of two machines after every run;
// going through Static's defensive copy there would perturb the alloc
// counts the same tests assert on the zero-alloc Run contract.
func (m *Machine) staticRef(i int) []int32 {
	if i < 0 || i >= len(m.statics) {
		return nil
	}
	return m.statics[i]
}

// NumStatics returns the number of static slots.
func (m *Machine) NumStatics() int { return len(m.statics) }

// Run executes the named handler to completion with the given arguments.
// A missing handler is not an error: the event is silently dropped (drivers
// handle only the events they care about) and an empty result returned.
// A linear scan beats a map for driver-sized handler sets (≤ ~10 names).
func (m *Machine) Run(name string, args []int32) (RunResult, error) {
	for _, ch := range m.img.compiled {
		if ch.name == name {
			var res RunResult
			err := m.runCompiled(ch, args, &res)
			return res, err
		}
	}
	return RunResult{}, nil
}

func b2i(b bool) int32 {
	if b {
		return 1
	}
	return 0
}

// stackEffect returns (pushes, pops) for the time model and bounds checks.
func stackEffect(op bytecode.Op, operand []byte) (int, int) {
	switch op {
	case bytecode.OpPushI8, bytecode.OpPushI16, bytecode.OpPushI32,
		bytecode.OpLoadStatic, bytecode.OpLoadLocal, bytecode.OpDup:
		return 1, 0
	case bytecode.OpDrop, bytecode.OpStoreStatic, bytecode.OpStoreLocal,
		bytecode.OpJz, bytecode.OpJnz, bytecode.OpReturnTop:
		return 0, 1
	case bytecode.OpLoadElem:
		return 1, 1
	case bytecode.OpStoreElem:
		return 0, 2
	case bytecode.OpAdd, bytecode.OpSub, bytecode.OpMul, bytecode.OpDiv, bytecode.OpMod,
		bytecode.OpBitAnd, bytecode.OpBitOr, bytecode.OpBitXor, bytecode.OpShl, bytecode.OpShr,
		bytecode.OpEq, bytecode.OpNe, bytecode.OpLt, bytecode.OpLe, bytecode.OpGt, bytecode.OpGe:
		return 1, 2
	case bytecode.OpNeg, bytecode.OpNot:
		return 1, 1
	case bytecode.OpSignal:
		if len(operand) == 3 {
			return 0, int(operand[2])
		}
		return 0, 0
	default:
		return 0, 0
	}
}
