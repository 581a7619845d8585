package vm

import (
	"errors"
	"fmt"
	"testing"

	"micropnp/internal/bytecode"
	"micropnp/internal/driver"
	"micropnp/internal/dsl"
)

// synthOps is the op menu the fuzz generator draws from. Every opcode of
// the ISA appears so the differential fuzz covers the whole instruction
// set, not just what the DSL code generator happens to emit.
var synthOps = []bytecode.Op{
	bytecode.OpNop, bytecode.OpPushI8, bytecode.OpPushI16, bytecode.OpPushI32,
	bytecode.OpDup, bytecode.OpDrop,
	bytecode.OpLoadStatic, bytecode.OpStoreStatic,
	bytecode.OpLoadLocal, bytecode.OpStoreLocal,
	bytecode.OpLoadElem, bytecode.OpStoreElem,
	bytecode.OpAdd, bytecode.OpSub, bytecode.OpMul, bytecode.OpDiv, bytecode.OpMod, bytecode.OpNeg,
	bytecode.OpBitAnd, bytecode.OpBitOr, bytecode.OpBitXor, bytecode.OpShl, bytecode.OpShr,
	bytecode.OpNot, bytecode.OpEq, bytecode.OpNe, bytecode.OpLt, bytecode.OpLe, bytecode.OpGt, bytecode.OpGe,
	bytecode.OpJmp, bytecode.OpJz, bytecode.OpJnz,
	bytecode.OpSignal,
	bytecode.OpReturnVoid, bytecode.OpReturnTop, bytecode.OpReturnStatic,
	bytecode.OpHalt,
}

// synthStatics declares the fuzz programs' state: a scalar and two arrays.
// All sizes are ≥ 1 (slot 0 must exist for OpLoadStatic/OpStoreStatic).
var synthStatics = []bytecode.StaticDef{{Size: 1}, {Size: 5}, {Size: 2}}

var synthConsts = []string{"this", "lib", "ev1", "ev2"}

// synthHandler lowers a raw fuzz byte stream into one structurally valid
// handler body: every opcode drawn from the menu, slot/local/const operands
// clamped into range, and jump targets resolved to instruction boundaries
// via assembler labels. The result always passes Program.Verify, so the
// fuzzer spends its budget on execution semantics instead of rejecting
// malformed programs at load.
func synthHandler(data []byte) ([]byte, error) {
	type gen struct {
		op bytecode.Op
		// imm is the decoded immediate / slot / local / argc operand.
		imm int32
		// tgt is the jump-target instruction index (resolved to a label).
		dest, event byte
		tgt         int
	}
	next := func(i *int) byte {
		if *i >= len(data) {
			return 0
		}
		b := data[*i]
		*i++
		return b
	}
	var ins []gen
	const maxIns = 200
	for i := 0; i < len(data) && len(ins) < maxIns; {
		g := gen{op: synthOps[int(next(&i))%len(synthOps)]}
		switch g.op {
		case bytecode.OpPushI8:
			g.imm = int32(int8(next(&i)))
		case bytecode.OpPushI16:
			g.imm = int32(int16(uint16(next(&i))<<8 | uint16(next(&i))))
		case bytecode.OpPushI32:
			g.imm = int32(uint32(next(&i))<<24 | uint32(next(&i))<<16 | uint32(next(&i))<<8 | uint32(next(&i)))
		case bytecode.OpLoadStatic, bytecode.OpStoreStatic, bytecode.OpLoadElem, bytecode.OpStoreElem, bytecode.OpReturnStatic:
			g.imm = int32(next(&i)) % int32(len(synthStatics))
		case bytecode.OpLoadLocal, bytecode.OpStoreLocal:
			g.imm = int32(next(&i)) % bytecode.MaxLocals
		case bytecode.OpSignal:
			g.dest = next(&i) % byte(len(synthConsts))
			g.event = next(&i) % byte(len(synthConsts))
			g.imm = int32(next(&i)) % 4
		case bytecode.OpJmp, bytecode.OpJz, bytecode.OpJnz:
			g.tgt = int(next(&i)) // clamped below once the count is known
		}
		ins = append(ins, g)
	}
	a := bytecode.NewAssembler()
	for idx, g := range ins {
		a.Label(fmt.Sprintf("i%d", idx))
		switch g.op {
		case bytecode.OpPushI8:
			a.Emit(bytecode.OpPushI8, byte(int8(g.imm)))
		case bytecode.OpPushI16:
			a.Emit(bytecode.OpPushI16, byte(uint16(g.imm)>>8), byte(uint16(g.imm)))
		case bytecode.OpPushI32:
			u := uint32(g.imm)
			a.Emit(bytecode.OpPushI32, byte(u>>24), byte(u>>16), byte(u>>8), byte(u))
		case bytecode.OpLoadStatic, bytecode.OpStoreStatic, bytecode.OpLoadElem, bytecode.OpStoreElem, bytecode.OpReturnStatic,
			bytecode.OpLoadLocal, bytecode.OpStoreLocal:
			a.Emit(g.op, byte(g.imm))
		case bytecode.OpSignal:
			a.Signal(g.dest, g.event, byte(g.imm))
		case bytecode.OpJmp, bytecode.OpJz, bytecode.OpJnz:
			a.Jump(g.op, fmt.Sprintf("i%d", g.tgt%(len(ins)+1)))
		default:
			a.Emit(g.op)
		}
	}
	a.Label(fmt.Sprintf("i%d", len(ins)))
	return a.Assemble()
}

// FuzzCompiledVsInterpreter is the differential fuzz target: random
// verified programs and random arguments must produce bit-identical
// RunResult/trap/fuel transcripts (and identical static state) on the
// compiled engine and the reference interpreter.
func FuzzCompiledVsInterpreter(f *testing.F) {
	// Seed with every embedded driver handler body, so the corpus starts
	// on realistic code shapes (incl. the BMP180 compensation math).
	for _, sd := range embeddedDrivers() {
		src, err := driver.Source(sd)
		if err != nil {
			f.Fatal(err)
		}
		prog, err := dsl.Compile(src, uint32(sd.ID))
		if err != nil {
			f.Fatal(err)
		}
		for _, h := range prog.Handlers {
			f.Add(h.Code, int32(512), int32(0), int32(-7))
		}
	}
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8}, int32(1), int32(2), int32(3))
	f.Add([]byte{30, 0, 31, 1, 15}, int32(0), int32(0), int32(0)) // jump-heavy

	f.Fuzz(func(t *testing.T, body []byte, a0, a1, a2 int32) {
		code, err := synthHandler(body)
		if err != nil {
			t.Skip() // out-of-range branch (assembler refuses); nothing to compare
		}
		ret := []byte{byte(bytecode.OpReturnVoid)}
		prog := &bytecode.Program{
			DeviceID: 1,
			Statics:  synthStatics,
			Imports:  []string{"lib"},
			Consts:   synthConsts,
			Handlers: []bytecode.Handler{
				{Name: "init", Code: ret},
				{Name: "destroy", Code: ret},
				{Name: "h", NParams: 3, Code: code},
			},
		}
		if err := prog.Verify(); err != nil {
			t.Fatalf("synthesized program failed verification (generator bug): %v\n%s",
				err, bytecode.Disassemble(code, synthConsts))
		}
		mc, mi := enginePair(t, prog)
		// Bound runaway loops well under the default so fuzz execs stay
		// fast; fuel exhaustion itself is part of the compared transcript.
		mc.Fuel, mi.Fuel = 2000, 2000
		args := []int32{a0, a1, a2}
		// Three runs: statics evolve, so later runs start from mutated
		// state and cover load-after-store paths.
		for pass := 0; pass < 3; pass++ {
			runBoth(t, mc, mi, "h", args)
			args[0], args[1], args[2] = args[1], args[2], args[0]+1
		}
	})
}

// FuzzDSLCompile fuzzes the DSL trust boundary end to end: source through
// parsing, checking, code generation and Verify (dsl.Compile), then
// lowering (Compile). Nothing may panic; bytecode the DSL compiler emits
// must pass Verify and lower; and every handler of an accepted program,
// run in program order on evolving statics, must give bit-identical
// transcripts on the compiled engine and the interpreter oracle.
func FuzzDSLCompile(f *testing.F) {
	for _, sd := range embeddedDrivers() {
		src, err := driver.Source(sd)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(src, int32(512))
	}

	f.Fuzz(func(t *testing.T, src string, arg int32) {
		prog, err := dsl.Compile(src, 1)
		if errors.Is(err, bytecode.ErrVerify) {
			t.Fatalf("the DSL compiler emitted bytecode Verify rejects: %v", err)
		}
		if err != nil {
			return
		}
		runHandlersBoth(t, prog, arg)
	})
}

// runHandlersBoth runs every handler of prog, in program order on evolving
// statics, on the compiled engine and the interpreter oracle, with
// arguments counting up from arg, and fails on any transcript divergence.
func runHandlersBoth(t *testing.T, prog *bytecode.Program, arg int32) {
	t.Helper()
	mc, mi := enginePair(t, prog)
	// Bound runaway loops well under the default so fuzz execs stay
	// fast; fuel exhaustion itself is part of the compared transcript.
	mc.Fuel, mi.Fuel = 2000, 2000
	for _, h := range prog.Handlers {
		args := make([]int32, h.NParams)
		for i := range args {
			args[i] = arg + int32(i)
		}
		runBoth(t, mc, mi, h.Name, args)
	}
}

// FuzzDriverBytes fuzzes the over-the-air trust boundary at the byte level:
// raw driver bytes through Images.Load (decode, Verify, lowering). Nothing
// may panic; an accepted driver's statics fit MaxStaticCells, so no driver
// can make a Thing allocate more per Machine; and every handler of an
// accepted driver, run in program order on evolving statics, must give
// bit-identical transcripts on the compiled engine and the interpreter
// oracle. The committed corpus holds a 546-byte driver that declares 255
// statics of 65 535 cells, which Verify must turn away.
func FuzzDriverBytes(f *testing.F) {
	for _, sd := range embeddedDrivers() {
		src, err := driver.Source(sd)
		if err != nil {
			f.Fatal(err)
		}
		prog, err := dsl.Compile(src, uint32(sd.ID))
		if err != nil {
			f.Fatal(err)
		}
		code, err := prog.Encode()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(code, int32(512))
	}

	f.Fuzz(func(t *testing.T, code []byte, arg int32) {
		img, err := NewImages().Load(code)
		if err != nil {
			return
		}
		prog := img.Program()
		cells := 0
		for _, s := range prog.Statics {
			cells += int(s.Size)
		}
		if cells > bytecode.MaxStaticCells {
			t.Fatalf("a loaded driver holds %d static cells (max %d)", cells, bytecode.MaxStaticCells)
		}
		runHandlersBoth(t, prog, arg)
	})
}
