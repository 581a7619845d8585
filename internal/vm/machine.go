package vm

import (
	"fmt"
	"time"

	"micropnp/internal/bytecode"
)

// Trap identifies a runtime fault raised by the interpreter. Traps become
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

// Machine executes the handlers of one installed driver. It is built from
// an Image (Image.Instantiate, or NewMachine for a bare Program) and owns
// only the driver's static state and its run scratch; the program and the
// compiled handlers are the image's, shared with every sibling machine. A
// Machine is not safe for concurrent use; the event router serialises
// handler executions (handlers are atomic). Machines of one Image run
// concurrently without coordination.
//
// Handlers are compiled to a pre-decoded direct-threaded form at load time
// (see compile.go); the bytecode interpreter is kept as the reference
// oracle and as the automatic fallback for programs the compiler does not
// support. Both engines are bit-identical in every observable: trap
// kind/PC, instruction count, emulated time, signal order and the
// scratch-backed RunResult contract.
type Machine struct {
	img     *Image
	statics [][]int32

	// compiled holds the handlers Run executes, in program order: the
	// image's, or private copies recosted under a reassigned Time; nil when
	// the program fell back to the interpreter. A linear scan beats a map
	// for driver-sized handler sets (≤ ~10 names) and matches the
	// interpreter's own prog.Handler lookup cost.
	compiled []*compiledHandler
	// costModel is the time model the compiled instruction costs were
	// computed under; Run recosts when Time was reassigned.
	costModel AVRTimeModel
	// interp forces the reference interpreter even when compiled forms
	// exist (the oracle side of differential tests).
	interp bool

	// MaxStack bounds the operand stack (default 64 cells).
	MaxStack int
	// Fuel bounds instructions per handler run (default 100000); handlers
	// run to completion, so unbounded loops are a driver bug surfaced as a
	// trap rather than a wedged runtime.
	Fuel int
	// Time is the emulated cost model (default DefaultAVRTimeModel).
	Time AVRTimeModel

	// scratch is the reusable operand-stack backing array. A Machine is
	// single-threaded and handlers run to completion without re-entering
	// Run (native libraries post events instead of calling back), so one
	// scratch stack per machine suffices and keeps Run allocation-free.
	scratch []int32
	// sigScratch and retScratch back RunResult.Signals and .Returned the
	// same way: the result's slices are valid until the next Run.
	sigScratch []Signal
	retScratch []int32
	// argArena backs Signal.Args in the compiled engine (the interpreter
	// allocates fresh slices, but that is an implementation detail — the
	// contract for callers of either engine is the weaker one: Args, like
	// Signals itself, are valid only until the next Run; copy what you
	// keep). argOff is the bump-allocation watermark, reset per Run.
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

// SetInterp forces (or releases) the reference interpreter for all handler
// runs. Differential tests pin one Machine of a pair to the oracle this
// way.
func (m *Machine) SetInterp(on bool) { m.interp = on }

// Compiled reports whether the compiled engine serves Run: the program
// compiled and the interpreter was not forced.
func (m *Machine) Compiled() bool { return m.compiled != nil && !m.interp }

// Engine names the engine serving Run ("compiled" or "interp").
func (m *Machine) Engine() string {
	if m.Compiled() {
		return "compiled"
	}
	return "interp"
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

// HasHandler reports whether the driver defines the named handler.
func (m *Machine) HasHandler(name string) bool { return m.img.prog.Handler(name) != nil }

// Run executes the named handler to completion with the given arguments.
// A missing handler is not an error: the event is silently dropped (drivers
// handle only the events they care about) and an empty result returned.
// Compiled programs run the direct-threaded form; everything else (and
// machines pinned with SetInterp) runs the reference interpreter.
func (m *Machine) Run(name string, args []int32) (RunResult, error) {
	if m.compiled != nil && !m.interp {
		// Recost first: it may swap the handler set the lookup scans.
		if m.costModel != m.Time {
			m.recost()
		}
		var ch *compiledHandler
		for _, c := range m.compiled {
			if c.name == name {
				ch = c
				break
			}
		}
		if ch == nil {
			return RunResult{}, nil
		}
		var res RunResult
		err := m.runCompiled(ch, args, &res)
		return res, err
	}
	return m.runInterp(name, args)
}

// runInterp is the reference bytecode interpreter — the behavioural oracle
// the compiled engine is differentially tested against.
func (m *Machine) runInterp(name string, args []int32) (RunResult, error) {
	h := m.img.prog.Handler(name)
	if h == nil {
		return RunResult{}, nil
	}
	var locals [bytecode.MaxLocals]int32
	for i, a := range args {
		if i >= int(h.NParams) || i >= len(locals) {
			break
		}
		locals[i] = a
	}
	var res RunResult
	res.Signals = m.sigScratch[:0]
	if cap(m.scratch) < m.MaxStack {
		m.scratch = make([]int32, 0, m.MaxStack)
	}
	stack := m.scratch[:0]
	code := h.Code
	trap := func(t Trap, pc int) (RunResult, error) {
		return res, &TrapError{Trap: t, Handler: name, PC: pc}
	}

	pop := func() int32 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		return v
	}

	for pc := 0; pc < len(code); {
		if res.Instructions >= m.Fuel {
			return trap(TrapFuelExhausted, pc)
		}
		res.Instructions++
		op := bytecode.Op(code[pc])
		w := op.OperandWidth()
		if w < 0 || pc+1+w > len(code) {
			return trap(TrapBadBytecode, pc)
		}
		operand := code[pc+1 : pc+1+w]
		next := pc + 1 + w
		pushes, pops := stackEffect(op, operand)
		if len(stack)-pops < 0 {
			return trap(TrapStackOverflow, pc)
		}
		if len(stack)-pops+pushes > m.MaxStack {
			return trap(TrapStackOverflow, pc)
		}
		res.EmulatedTime += m.Time.InstructionCost(pushes, pops)

		switch op {
		case bytecode.OpNop:

		case bytecode.OpPushI8:
			stack = append(stack, int32(int8(operand[0])))
		case bytecode.OpPushI16:
			stack = append(stack, int32(int16(uint16(operand[0])<<8|uint16(operand[1]))))
		case bytecode.OpPushI32:
			v := uint32(operand[0])<<24 | uint32(operand[1])<<16 | uint32(operand[2])<<8 | uint32(operand[3])
			stack = append(stack, int32(v))
		case bytecode.OpDup:
			// stackEffect models Dup as a pure push for the cost model, so
			// the generic bounds check above does not cover the read of the
			// current top; an empty stack must trap, not panic.
			if len(stack) == 0 {
				return trap(TrapStackOverflow, pc)
			}
			stack = append(stack, stack[len(stack)-1])
		case bytecode.OpDrop:
			pop()

		case bytecode.OpLoadStatic:
			stack = append(stack, m.statics[operand[0]][0])
		case bytecode.OpStoreStatic:
			m.statics[operand[0]][0] = pop()
		case bytecode.OpLoadLocal:
			stack = append(stack, locals[operand[0]])
		case bytecode.OpStoreLocal:
			locals[operand[0]] = pop()
		case bytecode.OpLoadElem:
			idx := pop()
			slot := m.statics[operand[0]]
			if idx < 0 || int(idx) >= len(slot) {
				return trap(TrapIndexRange, pc)
			}
			stack = append(stack, slot[idx])
		case bytecode.OpStoreElem:
			val := pop()
			idx := pop()
			slot := m.statics[operand[0]]
			if idx < 0 || int(idx) >= len(slot) {
				return trap(TrapIndexRange, pc)
			}
			slot[idx] = val

		case bytecode.OpAdd, bytecode.OpSub, bytecode.OpMul, bytecode.OpDiv, bytecode.OpMod,
			bytecode.OpBitAnd, bytecode.OpBitOr, bytecode.OpBitXor, bytecode.OpShl, bytecode.OpShr,
			bytecode.OpEq, bytecode.OpNe, bytecode.OpLt, bytecode.OpLe, bytecode.OpGt, bytecode.OpGe:
			r := pop()
			l := pop()
			v, t := binaryOp(op, l, r)
			if t != "" {
				return trap(t, pc)
			}
			stack = append(stack, v)

		case bytecode.OpNeg:
			stack[len(stack)-1] = -stack[len(stack)-1]
		case bytecode.OpNot:
			if stack[len(stack)-1] == 0 {
				stack[len(stack)-1] = 1
			} else {
				stack[len(stack)-1] = 0
			}

		case bytecode.OpJmp:
			pc = next + int(int16(uint16(operand[0])<<8|uint16(operand[1])))
			continue
		case bytecode.OpJz:
			if pop() == 0 {
				pc = next + int(int16(uint16(operand[0])<<8|uint16(operand[1])))
				continue
			}
		case bytecode.OpJnz:
			if pop() != 0 {
				pc = next + int(int16(uint16(operand[0])<<8|uint16(operand[1])))
				continue
			}

		case bytecode.OpSignal:
			argc := int(operand[2])
			if len(stack) < argc {
				return trap(TrapStackOverflow, pc)
			}
			args := make([]int32, argc)
			for i := argc - 1; i >= 0; i-- {
				args[i] = pop()
			}
			res.Signals = append(res.Signals, Signal{
				Dest:  m.img.prog.Consts[operand[0]],
				Event: m.img.prog.Consts[operand[1]],
				Args:  args,
			})
			m.sigScratch = res.Signals

		case bytecode.OpReturnVoid:
			return res, nil
		case bytecode.OpReturnTop:
			res.HasReturn = true
			m.retScratch = append(m.retScratch[:0], pop())
			res.Returned = m.retScratch
			return res, nil
		case bytecode.OpReturnStatic:
			res.HasReturn = true
			m.retScratch = append(m.retScratch[:0], m.statics[operand[0]]...)
			res.Returned = m.retScratch
			return res, nil
		case bytecode.OpHalt:
			return res, nil

		default:
			return trap(TrapBadBytecode, pc)
		}
		pc = next
	}
	return res, nil
}

// binaryOp evaluates a two-operand instruction; a non-empty trap reports a
// fault (division by zero).
func binaryOp(op bytecode.Op, l, r int32) (int32, Trap) {
	switch op {
	case bytecode.OpAdd:
		return l + r, ""
	case bytecode.OpSub:
		return l - r, ""
	case bytecode.OpMul:
		return l * r, ""
	case bytecode.OpDiv:
		if r == 0 {
			return 0, TrapDivByZero
		}
		return l / r, ""
	case bytecode.OpMod:
		if r == 0 {
			return 0, TrapDivByZero
		}
		return l % r, ""
	case bytecode.OpBitAnd:
		return l & r, ""
	case bytecode.OpBitOr:
		return l | r, ""
	case bytecode.OpBitXor:
		return l ^ r, ""
	case bytecode.OpShl:
		return l << (uint32(r) & 31), ""
	case bytecode.OpShr:
		// Arithmetic shift, matching C/Go signed semantics — drivers use
		// >> in signed fixed-point math (e.g. the BMP180 compensation).
		return l >> (uint32(r) & 31), ""
	case bytecode.OpEq:
		return b2i(l == r), ""
	case bytecode.OpNe:
		return b2i(l != r), ""
	case bytecode.OpLt:
		return b2i(l < r), ""
	case bytecode.OpLe:
		return b2i(l <= r), ""
	case bytecode.OpGt:
		return b2i(l > r), ""
	case bytecode.OpGe:
		return b2i(l >= r), ""
	}
	return 0, TrapBadBytecode
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
