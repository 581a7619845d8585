package vm

import (
	"fmt"
	"time"

	"micropnp/internal/bytecode"
)

// Install-time compilation of driver bytecode (the "compiled driver plane").
//
// Compile pre-decodes every handler into a direct-threaded instruction
// array, partitions it into straight-line basic blocks, and executes blocks
// with batched accounting (runCompiled): one fuel check, one stack-bounds
// check and one cost addition per block instead of per instruction, with an
// unchecked opcode dispatch inside the block. The measured alternative —
// one fused Go closure per instruction — was rejected: the per-instruction
// indirect call defeats inlining and benched ~1.4x over the interpreter,
// while block batching also removes the per-instruction fuel/bounds/cost
// accounting from the hot path.
//
// Compilation happens once per Image, not once per Machine: a deployment's
// Images table hands every Thing that installs the same driver bytes the
// same Image, and its Machines read the shared instruction and block arrays
// without copying them. Costs follow DefaultAVRTimeModel, the paper's
// Section 6.2 measurements, and are fixed at compile time.
//
// The batched accounting is exact, not approximate. A block's fuel demand
// and min/max stack excursion are computed at compile time, so the block
// precheck passes if and only if every per-instruction check inside the
// block would pass; when it fails, execution falls back to the
// per-instruction checked loop (runCompiledChecked), which traps at the
// same PC after the same instruction count as a per-instruction
// interpreter. Traps that fire mid-block on the fast path (div-by-zero,
// index range) rebuild the exact partial instruction count and emulated
// time from the block's cost prefix before returning.
//
// The compiled engine is the only one shipped code runs. The switch
// interpreter in interp_test.go is its test oracle, and compiled execution
// is bit-identical to it: same trap kind at the same byte PC after the same
// instruction count, same Signal order, same EmulatedTime under the AVR
// cost model. The differential tests, the trap-parity table,
// FuzzCompiledVsInterpreter and FuzzDSLCompile enforce this.

// cinstr is one pre-decoded instruction. Operands are fully resolved at
// compile time: immediates sign-extended, jump offsets turned into basic
// block indices, signal constants resolved to their pool strings.
type cinstr struct {
	op bytecode.Op
	// a is the primary decoded operand: the immediate for pushes, the
	// static/local slot, the target block index for jumps, or the signal
	// argc.
	a int32
	// dest and event are the resolved signal strings.
	dest, event string
	// pushes/pops drive the stack bounds checks and the cost model,
	// mirroring stackEffect exactly.
	pushes, pops int8
	// pc is the original bytecode offset, kept so TrapError reports the
	// byte PC of the faulting instruction.
	pc int32
	// cost is InstructionCost(pushes, pops) under DefaultAVRTimeModel.
	cost time.Duration
}

// cblock is one straight-line basic block: instructions [start, end], with
// control transfers only at end. The precomputed aggregates make one
// precheck equivalent to the conjunction of every member instruction's
// fuel and stack checks.
type cblock struct {
	start, end int32
	// n is the instruction count (fuel demand) of the block.
	n int32
	// minNet is the minimum, over member instructions, of the net stack
	// depth relative to block entry just after that instruction's pops
	// (≤ 0); entry sp + minNet ≥ 0 ⇔ no member underflows. Dup counts as
	// pops=1/pushes=2 here so its read of the current top is covered.
	minNet int32
	// maxPeak is the maximum depth relative to entry reached by any
	// member's pushes; entry sp + maxPeak ≤ maxStack ⇔ no member
	// overflows.
	maxPeak int32
	// cost is the sum of member instruction costs.
	cost time.Duration
}

// compiledHandler is one handler lowered to the block-threaded form.
type compiledHandler struct {
	name    string
	nparams int
	ins     []cinstr
	blocks  []cblock
}

// compileProgram lowers every handler of a verified program, or names the
// first handler and byte PC holding an instruction it cannot lower.
func compileProgram(prog *bytecode.Program) ([]*compiledHandler, error) {
	out := make([]*compiledHandler, 0, len(prog.Handlers))
	for i := range prog.Handlers {
		ch, err := compileHandler(prog, &prog.Handlers[i])
		if err != nil {
			return nil, err
		}
		out = append(out, ch)
	}
	return out, nil
}

// compileHandler lowers one handler and costs it under DefaultAVRTimeModel.
// It trusts its input: it is reached only through Compile, which runs
// Program.Verify first, so operand widths, static/local slots, signal
// constants and jump targets are already in range. The one thing it checks is that it knows every
// opcode, so an opcode added to the ISA without a compiled form fails here
// instead of executing as something else.
func compileHandler(prog *bytecode.Program, h *bytecode.Handler) (*compiledHandler, error) {
	code := h.Code
	// First pass: instruction index per byte offset, for jump resolution.
	// An unknown opcode (width -1) counts as one byte; the decode pass
	// rejects it.
	idxAt := make([]int32, len(code)+1)
	n := int32(0)
	for pc := 0; pc < len(code); pc += 1 + max(bytecode.Op(code[pc]).OperandWidth(), 0) {
		idxAt[pc] = n
		n++
	}
	idxAt[len(code)] = n

	// Second pass: decode. Jump targets hold instruction indices until the
	// blocks exist.
	ins := make([]cinstr, 0, n)
	for pc := 0; pc < len(code); {
		op := bytecode.Op(code[pc])
		w := op.OperandWidth()
		operand := code[pc+1:]
		next := pc + 1 + w
		in := cinstr{op: op, pc: int32(pc)}
		switch op {
		case bytecode.OpNop, bytecode.OpDup, bytecode.OpDrop,
			bytecode.OpAdd, bytecode.OpSub, bytecode.OpMul, bytecode.OpDiv, bytecode.OpMod,
			bytecode.OpBitAnd, bytecode.OpBitOr, bytecode.OpBitXor, bytecode.OpShl, bytecode.OpShr,
			bytecode.OpEq, bytecode.OpNe, bytecode.OpLt, bytecode.OpLe, bytecode.OpGt, bytecode.OpGe,
			bytecode.OpNeg, bytecode.OpNot,
			bytecode.OpReturnVoid, bytecode.OpReturnTop, bytecode.OpHalt:
		case bytecode.OpPushI8:
			in.a = int32(int8(operand[0]))
		case bytecode.OpPushI16:
			in.a = int32(int16(uint16(operand[0])<<8 | uint16(operand[1])))
		case bytecode.OpPushI32:
			in.a = int32(uint32(operand[0])<<24 | uint32(operand[1])<<16 | uint32(operand[2])<<8 | uint32(operand[3]))
		case bytecode.OpLoadStatic, bytecode.OpStoreStatic,
			bytecode.OpLoadElem, bytecode.OpStoreElem, bytecode.OpReturnStatic,
			bytecode.OpLoadLocal, bytecode.OpStoreLocal:
			in.a = int32(operand[0])
		case bytecode.OpJmp, bytecode.OpJz, bytecode.OpJnz:
			in.a = idxAt[next+int(int16(uint16(operand[0])<<8|uint16(operand[1])))]
		case bytecode.OpSignal:
			in.dest = prog.Consts[operand[0]]
			in.event = prog.Consts[operand[1]]
			in.a = int32(operand[2])
		default:
			return nil, fmt.Errorf("vm: handler %q: opcode 0x%02x at pc %d has no compiled form", h.Name, code[pc], pc)
		}
		pushes, pops := stackEffect(op, operand[:w])
		in.pushes, in.pops = int8(pushes), int8(pops)
		in.cost = DefaultAVRTimeModel.InstructionCost(pushes, pops)
		ins = append(ins, in)
		pc = next
	}

	// Third pass: block leaders — entry, every jump target, and every
	// instruction following a control transfer.
	leader := make([]bool, n+1)
	leader[0] = true
	for idx := range ins {
		switch ins[idx].op {
		case bytecode.OpJmp, bytecode.OpJz, bytecode.OpJnz:
			leader[ins[idx].a] = true
			leader[idx+1] = true
		case bytecode.OpReturnVoid, bytecode.OpReturnTop, bytecode.OpReturnStatic, bytecode.OpHalt:
			leader[idx+1] = true
		}
	}

	// Fourth pass: build blocks and aggregate fuel/stack/cost demands.
	blockAt := make([]int32, n+1)
	var blocks []cblock
	for i := int32(0); i < n; {
		j := i + 1
		for j < n && !leader[j] {
			j++
		}
		blockAt[i] = int32(len(blocks))
		b := cblock{start: i, end: j - 1, n: j - i}
		d := int32(0)
		for k := i; k < j; k++ {
			in := &ins[k]
			ep, eh := int32(in.pops), int32(in.pushes)
			if in.op == bytecode.OpDup {
				ep, eh = 1, 2 // cover the read of the current top
			}
			if d-ep < b.minNet {
				b.minNet = d - ep
			}
			if d-ep+eh > b.maxPeak {
				b.maxPeak = d - ep + eh
			}
			d += int32(in.pushes) - int32(in.pops)
			b.cost += in.cost
		}
		blocks = append(blocks, b)
		i = j
	}
	blockAt[n] = int32(len(blocks))

	// Fifth pass: rewrite jump targets from instruction to block indices
	// (targets are always leaders; end-of-code maps past the last block).
	for idx := range ins {
		switch ins[idx].op {
		case bytecode.OpJmp, bytecode.OpJz, bytecode.OpJnz:
			ins[idx].a = blockAt[ins[idx].a]
		}
	}
	return &compiledHandler{name: h.Name, nparams: int(h.NParams), ins: ins, blocks: blocks}, nil
}

// blockTrapAt rebuilds the exact partial transcript for a trap at
// instruction k inside a block whose fuel/cost accounting was bulk-applied
// at entry, then returns the TrapError. Cold path.
func blockTrapAt(ch *compiledHandler, b *cblock, k int, entrySteps int, entryEtime time.Duration, res *RunResult, kind Trap) error {
	res.Instructions = entrySteps + (k - int(b.start)) + 1
	for j := int(b.start); j <= k; j++ {
		entryEtime += ch.ins[j].cost
	}
	res.EmulatedTime = entryEtime
	return &TrapError{Trap: kind, Handler: ch.name, PC: int(ch.ins[k].pc)}
}

// runCompiled executes one pre-decoded handler. Every observable — trap
// kind/PC, instruction count, emulated time, signal order, the
// scratch-backed result slices — matches the test oracle bit for bit.
func (m *Machine) runCompiled(ch *compiledHandler, args []int32, res *RunResult) error {
	var locals [bytecode.MaxLocals]int32
	for i, a := range args {
		if i >= ch.nparams || i >= len(locals) {
			break
		}
		locals[i] = a
	}
	res.Signals = m.sigScratch[:0]
	m.argOff = 0 // previous run's Signal.Args expire with its Signals
	// sp-indexed full-length stack: indexing into a fixed-length slice is
	// cheaper than append/reslice bookkeeping on every push and pop.
	stack := m.scratch[:]
	sp := 0
	fuel := m.Fuel
	statics := m.statics
	ins := ch.ins
	blocks := ch.blocks
	steps := 0
	var etime time.Duration

	for bi := 0; bi < len(blocks); {
		b := &blocks[bi]
		// Block precheck: equivalent to every member instruction's fuel
		// and stack checks. On failure some member is guaranteed to trap —
		// fall back to the per-instruction loop to trap exactly.
		if steps+int(b.n) > fuel || sp+int(b.minNet) < 0 || sp+int(b.maxPeak) > maxStack {
			return m.runCompiledChecked(ch, bi, sp, &locals, steps, etime, res)
		}
		entrySteps, entryEtime := steps, etime
		steps += int(b.n)
		etime += b.cost
		next := bi + 1
		// Hoisted bounds: b.end would otherwise be reloaded per iteration
		// because the in-loop static/stack stores may alias it.
		end := int(b.end)
		for k := int(b.start); k <= end; k++ {
			in := &ins[k]
			switch in.op {
			case bytecode.OpNop:

			case bytecode.OpPushI8, bytecode.OpPushI16, bytecode.OpPushI32:
				stack[sp] = in.a
				sp++
			case bytecode.OpDup:
				stack[sp] = stack[sp-1]
				sp++
			case bytecode.OpDrop:
				sp--

			case bytecode.OpLoadStatic:
				stack[sp] = statics[in.a][0]
				sp++
			case bytecode.OpStoreStatic:
				sp--
				statics[in.a][0] = stack[sp]
			case bytecode.OpLoadLocal:
				stack[sp] = locals[in.a]
				sp++
			case bytecode.OpStoreLocal:
				sp--
				locals[in.a] = stack[sp]
			case bytecode.OpLoadElem:
				idx := stack[sp-1]
				slot := statics[in.a]
				if idx < 0 || int(idx) >= len(slot) {
					return blockTrapAt(ch, b, k, entrySteps, entryEtime, res, TrapIndexRange)
				}
				stack[sp-1] = slot[idx]
			case bytecode.OpStoreElem:
				val := stack[sp-1]
				idx := stack[sp-2]
				sp -= 2
				slot := statics[in.a]
				if idx < 0 || int(idx) >= len(slot) {
					return blockTrapAt(ch, b, k, entrySteps, entryEtime, res, TrapIndexRange)
				}
				slot[idx] = val

			case bytecode.OpAdd:
				stack[sp-2] += stack[sp-1]
				sp--
			case bytecode.OpSub:
				stack[sp-2] -= stack[sp-1]
				sp--
			case bytecode.OpMul:
				stack[sp-2] *= stack[sp-1]
				sp--
			case bytecode.OpDiv:
				r := stack[sp-1]
				if r == 0 {
					return blockTrapAt(ch, b, k, entrySteps, entryEtime, res, TrapDivByZero)
				}
				stack[sp-2] /= r
				sp--
			case bytecode.OpMod:
				r := stack[sp-1]
				if r == 0 {
					return blockTrapAt(ch, b, k, entrySteps, entryEtime, res, TrapDivByZero)
				}
				stack[sp-2] %= r
				sp--
			case bytecode.OpBitAnd:
				stack[sp-2] &= stack[sp-1]
				sp--
			case bytecode.OpBitOr:
				stack[sp-2] |= stack[sp-1]
				sp--
			case bytecode.OpBitXor:
				stack[sp-2] ^= stack[sp-1]
				sp--
			case bytecode.OpShl:
				stack[sp-2] <<= uint32(stack[sp-1]) & 31
				sp--
			case bytecode.OpShr:
				stack[sp-2] >>= uint32(stack[sp-1]) & 31
				sp--
			case bytecode.OpEq:
				stack[sp-2] = b2i(stack[sp-2] == stack[sp-1])
				sp--
			case bytecode.OpNe:
				stack[sp-2] = b2i(stack[sp-2] != stack[sp-1])
				sp--
			case bytecode.OpLt:
				stack[sp-2] = b2i(stack[sp-2] < stack[sp-1])
				sp--
			case bytecode.OpLe:
				stack[sp-2] = b2i(stack[sp-2] <= stack[sp-1])
				sp--
			case bytecode.OpGt:
				stack[sp-2] = b2i(stack[sp-2] > stack[sp-1])
				sp--
			case bytecode.OpGe:
				stack[sp-2] = b2i(stack[sp-2] >= stack[sp-1])
				sp--

			case bytecode.OpNeg:
				stack[sp-1] = -stack[sp-1]
			case bytecode.OpNot:
				if stack[sp-1] == 0 {
					stack[sp-1] = 1
				} else {
					stack[sp-1] = 0
				}

			// Control transfers only occur at k == b.end, so setting next
			// here never skips block members.
			case bytecode.OpJmp:
				next = int(in.a)
			case bytecode.OpJz:
				sp--
				if stack[sp] == 0 {
					next = int(in.a)
				}
			case bytecode.OpJnz:
				sp--
				if stack[sp] != 0 {
					next = int(in.a)
				}

			case bytecode.OpSignal:
				argc := int(in.a)
				// Signal.Args are arena-backed like the rest of RunResult:
				// valid until the next Run, copied by any caller that keeps
				// them longer (routeSignal's self-post is the one such site).
				sargs := m.argAlloc(argc)
				sp -= argc
				copy(sargs, stack[sp:sp+argc])
				res.Signals = append(res.Signals, Signal{Dest: in.dest, Event: in.event, Args: sargs})
				m.sigScratch = res.Signals

			// Returns end their block, so the bulk-applied accounting is
			// already exact here.
			case bytecode.OpReturnVoid, bytecode.OpHalt:
				res.Instructions = steps
				res.EmulatedTime = etime
				return nil
			case bytecode.OpReturnTop:
				res.Instructions = steps
				res.EmulatedTime = etime
				res.HasReturn = true
				m.retScratch = append(m.retScratch[:0], stack[sp-1])
				res.Returned = m.retScratch
				return nil
			case bytecode.OpReturnStatic:
				res.Instructions = steps
				res.EmulatedTime = etime
				res.HasReturn = true
				m.retScratch = append(m.retScratch[:0], statics[in.a]...)
				res.Returned = m.retScratch
				return nil
			}
		}
		bi = next
	}
	res.Instructions = steps
	res.EmulatedTime = etime
	return nil
}

// runCompiledChecked is the per-instruction slow path, entered from block
// bi when its precheck fails (imminent fuel or stack trap). It applies the
// per-instruction check order — fuel, count, stack bounds, cost, execute —
// so the trap surfaces at the same PC after the same instruction count.
func (m *Machine) runCompiledChecked(ch *compiledHandler, bi, sp int, locals *[bytecode.MaxLocals]int32, steps int, etime time.Duration, res *RunResult) error {
	stack := m.scratch[:]
	fuel := m.Fuel
	statics := m.statics
	ins := ch.ins
	blocks := ch.blocks

	trap := func(kind Trap, pc int32, steps int, etime time.Duration) error {
		res.Instructions = steps
		res.EmulatedTime = etime
		return &TrapError{Trap: kind, Handler: ch.name, PC: int(pc)}
	}
	// jumpTo resolves a block index to its first instruction; past-the-end
	// means fall off the handler.
	done := len(ins)
	jumpTo := func(b int32) int {
		if int(b) >= len(blocks) {
			return done
		}
		return int(blocks[b].start)
	}

	for k := jumpTo(int32(bi)); k < len(ins); {
		in := &ins[k]
		if steps >= fuel {
			return trap(TrapFuelExhausted, in.pc, steps, etime)
		}
		steps++
		nsp := sp - int(in.pops)
		if nsp < 0 || nsp+int(in.pushes) > maxStack {
			return trap(TrapStackOverflow, in.pc, steps, etime)
		}
		etime += in.cost

		switch in.op {
		case bytecode.OpNop:

		case bytecode.OpPushI8, bytecode.OpPushI16, bytecode.OpPushI32:
			stack[sp] = in.a
			sp++
		case bytecode.OpDup:
			// Dup declares pops=0, so the generic bound above does not
			// cover the read of the current top.
			if sp == 0 {
				return trap(TrapStackOverflow, in.pc, steps, etime)
			}
			stack[sp] = stack[sp-1]
			sp++
		case bytecode.OpDrop:
			sp--

		case bytecode.OpLoadStatic:
			stack[sp] = statics[in.a][0]
			sp++
		case bytecode.OpStoreStatic:
			sp--
			statics[in.a][0] = stack[sp]
		case bytecode.OpLoadLocal:
			stack[sp] = locals[in.a]
			sp++
		case bytecode.OpStoreLocal:
			sp--
			locals[in.a] = stack[sp]
		case bytecode.OpLoadElem:
			idx := stack[sp-1]
			slot := statics[in.a]
			if idx < 0 || int(idx) >= len(slot) {
				return trap(TrapIndexRange, in.pc, steps, etime)
			}
			stack[sp-1] = slot[idx]
		case bytecode.OpStoreElem:
			val := stack[sp-1]
			idx := stack[sp-2]
			sp -= 2
			slot := statics[in.a]
			if idx < 0 || int(idx) >= len(slot) {
				return trap(TrapIndexRange, in.pc, steps, etime)
			}
			slot[idx] = val

		case bytecode.OpAdd:
			stack[sp-2] += stack[sp-1]
			sp--
		case bytecode.OpSub:
			stack[sp-2] -= stack[sp-1]
			sp--
		case bytecode.OpMul:
			stack[sp-2] *= stack[sp-1]
			sp--
		case bytecode.OpDiv:
			r := stack[sp-1]
			if r == 0 {
				return trap(TrapDivByZero, in.pc, steps, etime)
			}
			stack[sp-2] /= r
			sp--
		case bytecode.OpMod:
			r := stack[sp-1]
			if r == 0 {
				return trap(TrapDivByZero, in.pc, steps, etime)
			}
			stack[sp-2] %= r
			sp--
		case bytecode.OpBitAnd:
			stack[sp-2] &= stack[sp-1]
			sp--
		case bytecode.OpBitOr:
			stack[sp-2] |= stack[sp-1]
			sp--
		case bytecode.OpBitXor:
			stack[sp-2] ^= stack[sp-1]
			sp--
		case bytecode.OpShl:
			stack[sp-2] <<= uint32(stack[sp-1]) & 31
			sp--
		case bytecode.OpShr:
			stack[sp-2] >>= uint32(stack[sp-1]) & 31
			sp--
		case bytecode.OpEq:
			stack[sp-2] = b2i(stack[sp-2] == stack[sp-1])
			sp--
		case bytecode.OpNe:
			stack[sp-2] = b2i(stack[sp-2] != stack[sp-1])
			sp--
		case bytecode.OpLt:
			stack[sp-2] = b2i(stack[sp-2] < stack[sp-1])
			sp--
		case bytecode.OpLe:
			stack[sp-2] = b2i(stack[sp-2] <= stack[sp-1])
			sp--
		case bytecode.OpGt:
			stack[sp-2] = b2i(stack[sp-2] > stack[sp-1])
			sp--
		case bytecode.OpGe:
			stack[sp-2] = b2i(stack[sp-2] >= stack[sp-1])
			sp--

		case bytecode.OpNeg:
			stack[sp-1] = -stack[sp-1]
		case bytecode.OpNot:
			if stack[sp-1] == 0 {
				stack[sp-1] = 1
			} else {
				stack[sp-1] = 0
			}

		case bytecode.OpJmp:
			k = jumpTo(in.a)
			continue
		case bytecode.OpJz:
			sp--
			if stack[sp] == 0 {
				k = jumpTo(in.a)
				continue
			}
		case bytecode.OpJnz:
			sp--
			if stack[sp] != 0 {
				k = jumpTo(in.a)
				continue
			}

		case bytecode.OpSignal:
			argc := int(in.a)
			sargs := m.argAlloc(argc)
			sp -= argc
			copy(sargs, stack[sp:sp+argc])
			res.Signals = append(res.Signals, Signal{Dest: in.dest, Event: in.event, Args: sargs})
			m.sigScratch = res.Signals

		case bytecode.OpReturnVoid, bytecode.OpHalt:
			res.Instructions = steps
			res.EmulatedTime = etime
			return nil
		case bytecode.OpReturnTop:
			res.Instructions = steps
			res.EmulatedTime = etime
			res.HasReturn = true
			m.retScratch = append(m.retScratch[:0], stack[sp-1])
			res.Returned = m.retScratch
			return nil
		case bytecode.OpReturnStatic:
			res.Instructions = steps
			res.EmulatedTime = etime
			res.HasReturn = true
			m.retScratch = append(m.retScratch[:0], statics[in.a]...)
			res.Returned = m.retScratch
			return nil
		}
		k++
	}
	res.Instructions = steps
	res.EmulatedTime = etime
	return nil
}
