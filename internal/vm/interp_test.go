package vm

import "micropnp/internal/bytecode"

// interpRun is the reference bytecode interpreter — the behavioural oracle
// the compiled engine is differentially tested against. It decodes and
// checks every instruction as it runs, so it shares no lowering, block
// batching or precomputed cost with the engine it checks; it runs on the
// machine's statics and result scratch like Run does.
func interpRun(m *Machine, name string, args []int32) (RunResult, error) {
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
		if len(stack)-pops+pushes > maxStack {
			return trap(TrapStackOverflow, pc)
		}
		res.EmulatedTime += DefaultAVRTimeModel.InstructionCost(pushes, pops)

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
