package bytecode

import (
	"errors"
	"fmt"
)

// ErrVerify reports bytecode that fails static verification.
var ErrVerify = errors.New("bytecode: verification failed")

// Verify statically checks a program before installation: static memory
// (each static at most MaxStaticSize cells, all of them at most
// MaxStaticCells), opcode validity, operand bounds (static slots, constant
// pool, locals), jump targets landing on instruction boundaries, and the
// init and destroy handlers being present. It does not prove that code
// terminates: the VM bounds every run with its fuel instead. Things run this
// before activating an over-the-air driver (a malformed driver must never
// take down the runtime).
func (p *Program) Verify() error {
	cells := 0
	for i, s := range p.Statics {
		if s.Size > MaxStaticSize {
			return fmt.Errorf("%w: static %d has %d cells (max %d)", ErrVerify, i, s.Size, MaxStaticSize)
		}
		cells += int(s.Size)
	}
	if cells > MaxStaticCells {
		return fmt.Errorf("%w: statics hold %d cells (max %d)", ErrVerify, cells, MaxStaticCells)
	}
	names := map[string]bool{}
	for _, h := range p.Handlers {
		if h.Name == "" {
			return fmt.Errorf("%w: unnamed handler", ErrVerify)
		}
		if names[h.Name] {
			return fmt.Errorf("%w: duplicate handler %q", ErrVerify, h.Name)
		}
		names[h.Name] = true
		if h.NParams > MaxLocals {
			return fmt.Errorf("%w: handler %q has %d params (max %d)", ErrVerify, h.Name, h.NParams, MaxLocals)
		}
		if err := p.verifyCode(h); err != nil {
			return fmt.Errorf("handler %q: %w", h.Name, err)
		}
	}
	if p.Handler("init") == nil || p.Handler("destroy") == nil {
		return fmt.Errorf("%w: drivers must implement init and destroy handlers", ErrVerify)
	}
	return nil
}

func (p *Program) verifyCode(h Handler) error {
	code := h.Code
	// First pass: mark instruction boundaries and validate operands.
	boundary := make([]bool, len(code)+1)
	boundary[len(code)] = true
	for pc := 0; pc < len(code); {
		boundary[pc] = true
		op := Op(code[pc])
		w := op.OperandWidth()
		if w < 0 || !op.Valid() {
			return fmt.Errorf("%w: invalid opcode 0x%02x at %d", ErrVerify, code[pc], pc)
		}
		if pc+1+w > len(code) {
			return fmt.Errorf("%w: truncated instruction at %d", ErrVerify, pc)
		}
		operand := code[pc+1 : pc+1+w]
		switch op {
		case OpLoadStatic, OpStoreStatic, OpLoadElem, OpStoreElem, OpReturnStatic:
			if int(operand[0]) >= len(p.Statics) {
				return fmt.Errorf("%w: static slot %d out of range at %d", ErrVerify, operand[0], pc)
			}
		case OpLoadLocal, OpStoreLocal:
			if operand[0] >= MaxLocals {
				return fmt.Errorf("%w: local %d out of range at %d", ErrVerify, operand[0], pc)
			}
		case OpSignal:
			if int(operand[0]) >= len(p.Consts) || int(operand[1]) >= len(p.Consts) {
				return fmt.Errorf("%w: signal constant out of range at %d", ErrVerify, pc)
			}
		}
		pc += 1 + w
	}
	// Second pass: jump targets must land on instruction boundaries.
	for pc := 0; pc < len(code); {
		op := Op(code[pc])
		w := op.OperandWidth()
		next := pc + 1 + w
		switch op {
		case OpJmp, OpJz, OpJnz:
			off := int(int16(uint16(code[pc+1])<<8 | uint16(code[pc+2])))
			target := next + off
			if target < 0 || target > len(code) || !boundary[target] {
				return fmt.Errorf("%w: jump at %d to invalid target %d", ErrVerify, pc, target)
			}
		}
		pc = next
	}
	return nil
}
