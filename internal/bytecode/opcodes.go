// Package bytecode defines the µPnP driver bytecode: a compact, 8-bit,
// stack-based instruction set inspired by the JVM but tailored to IoT driver
// development (Section 4.1 "Compilation"). Drivers compiled to this format
// are platform independent and small enough for energy-efficient over-the-air
// distribution; internal/vm compiles and executes them.
//
// Every instruction is one opcode byte followed by zero or more operand
// bytes. The operand stack holds 32-bit signed integers; static driver state
// lives in indexed slots (scalars are arrays of length one).
package bytecode

import "fmt"

// Op is a bytecode opcode.
type Op byte

// The instruction set. Operand encodings are listed per opcode; multi-byte
// operands are big-endian.
const (
	// OpNop does nothing.
	OpNop Op = iota
	// OpPushI8 <i8>: push a sign-extended 8-bit immediate.
	OpPushI8
	// OpPushI16 <i16>: push a sign-extended 16-bit immediate.
	OpPushI16
	// OpPushI32 <i32>: push a 32-bit immediate.
	OpPushI32
	// OpDup duplicates the top of stack.
	OpDup
	// OpDrop pops and discards the top of stack.
	OpDrop
	// OpLoadStatic <u8>: push static slot (element 0 for arrays).
	OpLoadStatic
	// OpStoreStatic <u8>: pop into static slot.
	OpStoreStatic
	// OpLoadLocal <u8>: push a handler local (parameters are locals 0..n-1).
	OpLoadLocal
	// OpStoreLocal <u8>: pop into a handler local.
	OpStoreLocal
	// OpLoadElem <u8>: pop index, push static[slot][index].
	OpLoadElem
	// OpStoreElem <u8>: pop value then index, store static[slot][index].
	OpStoreElem

	// Arithmetic: binary ops pop right then left, push the result.
	OpAdd
	OpSub
	OpMul
	OpDiv
	OpMod
	OpNeg

	// Bitwise.
	OpBitAnd
	OpBitOr
	OpBitXor
	OpShl
	OpShr

	// Logic: OpNot pops one value and pushes !v; comparisons push 0 or 1.
	OpNot
	OpEq
	OpNe
	OpLt
	OpLe
	OpGt
	OpGe

	// OpJmp <i16>: relative jump (offset from the end of the instruction).
	OpJmp
	// OpJz <i16>: pop; jump if zero.
	OpJz
	// OpJnz <i16>: pop; jump if non-zero.
	OpJnz

	// OpSignal <dest u8> <event u8> <argc u8>: emit an event. dest and event
	// index the constant pool ("this" targets the driver itself, any other
	// name targets a native library or the runtime). argc arguments are
	// popped (first argument pushed first).
	OpSignal

	// OpReturnVoid ends the handler with no value.
	OpReturnVoid
	// OpReturnTop pops the top of stack and returns it to the pending
	// remote operation (the DSL `return expr;`).
	OpReturnTop
	// OpReturnStatic <u8>: return a whole static slot (the DSL
	// `return rfid;` for arrays).
	OpReturnStatic
	// OpHalt ends the handler (implicit at code end).
	OpHalt

	opCount // sentinel
)

// OperandWidth returns the number of operand bytes following the opcode,
// or -1 for an invalid opcode.
func (o Op) OperandWidth() int {
	switch o {
	case OpNop, OpDup, OpDrop,
		OpAdd, OpSub, OpMul, OpDiv, OpMod, OpNeg,
		OpBitAnd, OpBitOr, OpBitXor, OpShl, OpShr,
		OpNot, OpEq, OpNe, OpLt, OpLe, OpGt, OpGe,
		OpReturnVoid, OpReturnTop, OpHalt:
		return 0
	case OpPushI8, OpLoadStatic, OpStoreStatic, OpLoadLocal, OpStoreLocal,
		OpLoadElem, OpStoreElem, OpReturnStatic:
		return 1
	case OpPushI16, OpJmp, OpJz, OpJnz:
		return 2
	case OpSignal:
		return 3
	case OpPushI32:
		return 4
	default:
		return -1
	}
}

var opNames = map[Op]string{
	OpNop: "nop", OpPushI8: "push.i8", OpPushI16: "push.i16", OpPushI32: "push.i32",
	OpDup: "dup", OpDrop: "drop",
	OpLoadStatic: "load.s", OpStoreStatic: "store.s",
	OpLoadLocal: "load.l", OpStoreLocal: "store.l",
	OpLoadElem: "load.e", OpStoreElem: "store.e",
	OpAdd: "add", OpSub: "sub", OpMul: "mul", OpDiv: "div", OpMod: "mod", OpNeg: "neg",
	OpBitAnd: "and.b", OpBitOr: "or.b", OpBitXor: "xor.b", OpShl: "shl", OpShr: "shr",
	OpNot: "not", OpEq: "eq", OpNe: "ne", OpLt: "lt", OpLe: "le", OpGt: "gt", OpGe: "ge",
	OpJmp: "jmp", OpJz: "jz", OpJnz: "jnz",
	OpSignal: "signal", OpReturnVoid: "ret", OpReturnTop: "ret.v", OpReturnStatic: "ret.s",
	OpHalt: "halt",
}

func (o Op) String() string {
	if n, ok := opNames[o]; ok {
		return n
	}
	return fmt.Sprintf("op(%d)", byte(o))
}

// Valid reports whether o is a defined opcode.
func (o Op) Valid() bool { return o < opCount }
