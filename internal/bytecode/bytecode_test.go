package bytecode

import (
	"bytes"
	"errors"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

func sampleProgram(t testing.TB) *Program {
	t.Helper()
	a := NewAssembler()
	a.Push(0)
	a.Emit(OpStoreStatic, 0)
	a.Emit(OpReturnVoid)
	initCode, err := a.Assemble()
	if err != nil {
		t.Fatal(err)
	}

	a = NewAssembler()
	a.Emit(OpLoadStatic, 0)
	a.Push(12)
	a.Emit(OpEq)
	a.Jump(OpJz, "done")
	a.Signal(0, 1, 0)
	a.Label("done")
	a.Emit(OpReturnVoid)
	readCode, err := a.Assemble()
	if err != nil {
		t.Fatal(err)
	}

	return &Program{
		DeviceID: 0xad1cbe01,
		Statics:  []StaticDef{{Size: 1}, {Size: 12}},
		Imports:  []string{"uart"},
		Consts:   []string{"this", "readDone", "uart"},
		Handlers: []Handler{
			{Kind: KindEvent, Name: "init", Code: initCode},
			{Kind: KindEvent, Name: "destroy", Code: []byte{byte(OpReturnVoid)}},
			{Kind: KindEvent, Name: "read", Code: readCode},
			{Kind: KindError, Name: "timeOut", Code: []byte{byte(OpReturnVoid)}},
		},
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	p := sampleProgram(t)
	data, err := p.Encode()
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(p, got) {
		t.Fatalf("round trip mismatch:\n%+v\n%+v", p, got)
	}
	if p.Size() != len(data) {
		t.Fatalf("Size() = %d, want %d", p.Size(), len(data))
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		nil,
		{},
		[]byte("not a driver at all"),
		{0xB5, 'u', 'P', 'C'},                 // truncated after magic
		{0xB5, 'u', 'P', 'C', 99, 0, 0, 0, 0}, // bad version
	}
	for i, data := range cases {
		if _, err := Decode(data); err == nil {
			t.Errorf("case %d: garbage must not decode", i)
		}
	}
}

func TestDecodeRejectsTrailingBytes(t *testing.T) {
	p := sampleProgram(t)
	data, err := p.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Decode(append(data, 0x00)); err == nil {
		t.Fatal("trailing bytes must be rejected")
	}
}

func TestDecodeRejectsTruncations(t *testing.T) {
	p := sampleProgram(t)
	data, err := p.Encode()
	if err != nil {
		t.Fatal(err)
	}
	// Every proper prefix must fail to decode (no panics, no false accepts).
	for n := 0; n < len(data); n++ {
		if _, err := Decode(data[:n]); err == nil {
			t.Fatalf("prefix of %d bytes must not decode", n)
		}
	}
}

func TestDecodeFuzzNoPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	p := sampleProgram(t)
	data, _ := p.Encode()
	for i := 0; i < 2000; i++ {
		mut := append([]byte(nil), data...)
		for j := 0; j < 1+rng.Intn(8); j++ {
			mut[rng.Intn(len(mut))] ^= byte(1 << rng.Intn(8))
		}
		if dec, err := Decode(mut); err == nil {
			// Decoded mutants must at least re-encode.
			if _, err := dec.Encode(); err != nil {
				t.Fatalf("mutant decoded but re-encode failed: %v", err)
			}
		}
	}
}

func TestVerifyAcceptsSample(t *testing.T) {
	if err := sampleProgram(t).Verify(); err != nil {
		t.Fatal(err)
	}
}

func TestVerifyRejectsMissingLifecycleHandlers(t *testing.T) {
	p := sampleProgram(t)
	p.Handlers = p.Handlers[2:] // drop init and destroy
	if err := p.Verify(); err == nil {
		t.Fatal("program without init/destroy must fail verification")
	}
}

func TestVerifyRejectsDuplicateHandlers(t *testing.T) {
	p := sampleProgram(t)
	p.Handlers = append(p.Handlers, Handler{Kind: KindEvent, Name: "init", Code: []byte{byte(OpReturnVoid)}})
	if err := p.Verify(); err == nil {
		t.Fatal("duplicate handler must fail verification")
	}
}

func TestVerifyRejectsBadOperands(t *testing.T) {
	cases := map[string][]byte{
		"bad opcode":        {0xff},
		"truncated":         {byte(OpPushI16), 0x01},
		"static oob":        {byte(OpLoadStatic), 200, byte(OpReturnVoid)},
		"local oob":         {byte(OpLoadLocal), 99, byte(OpReturnVoid)},
		"const oob":         {byte(OpSignal), 99, 0, 0, byte(OpReturnVoid)},
		"jump outside":      {byte(OpJmp), 0x7f, 0xff, byte(OpReturnVoid)},
		"jump mid-instr":    {byte(OpJmp), 0x00, 0x01, byte(OpPushI16), 0, 0, byte(OpReturnVoid)},
		"negative jump oob": {byte(OpJz), 0xff, 0x00, byte(OpReturnVoid)},
	}
	for name, code := range cases {
		p := sampleProgram(t)
		p.Handlers[0].Code = code
		if err := p.Verify(); err == nil {
			t.Errorf("%s: must fail verification", name)
		}
	}
}

// staticBomb is a well-formed driver whose statics claim all the wire
// format allows: 255 statics of 65 535 cells, 66.8 MB for every Machine
// that instantiates it, from 546 bytes on the wire.
func staticBomb() *Program {
	p := &Program{DeviceID: 1, Statics: make([]StaticDef, MaxStatics)}
	for i := range p.Statics {
		p.Statics[i].Size = 65535
	}
	ret := []byte{byte(OpReturnVoid)}
	p.Handlers = []Handler{{Kind: KindEvent, Name: "init", Code: ret}, {Kind: KindEvent, Name: "destroy", Code: ret}}
	return p
}

func TestVerifyBoundsStaticMemory(t *testing.T) {
	bomb := staticBomb()
	code, err := bomb.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if len(code) != 546 {
		t.Fatalf("the static bomb encodes to %d bytes, want 546", len(code))
	}
	for _, tc := range []struct {
		name  string
		sizes []uint16
		ok    bool
	}{
		{"bomb", nil, false},
		{"one static at the cap", []uint16{MaxStaticSize}, true},
		{"one static past the cap", []uint16{MaxStaticSize + 1}, false},
		{"the whole budget", []uint16{MaxStaticSize, MaxStaticSize}, true},
		{"one cell past the budget", []uint16{MaxStaticSize, MaxStaticSize, 1}, false},
		{"many small statics past the budget", slices.Repeat([]uint16{64}, 129), false},
	} {
		p := staticBomb()
		if tc.sizes != nil {
			p.Statics = p.Statics[:0]
			for _, n := range tc.sizes {
				p.Statics = append(p.Statics, StaticDef{Size: n})
			}
		}
		err := p.Verify()
		if tc.ok && err != nil {
			t.Errorf("%s: %v", tc.name, err)
		}
		if !tc.ok && !errors.Is(err, ErrVerify) {
			t.Errorf("%s: Verify = %v, want a verification error", tc.name, err)
		}
	}
}

func TestAssemblerBranches(t *testing.T) {
	a := NewAssembler()
	a.Push(1)
	a.Jump(OpJnz, "end")
	a.Push(42)
	a.Emit(OpDrop)
	a.Label("end")
	a.Emit(OpReturnVoid)
	code, err := a.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	// jnz offset must skip push.i8 42 + drop = 3 bytes.
	off := int16(uint16(code[3])<<8 | uint16(code[4]))
	if off != 3 {
		t.Fatalf("branch offset = %d, want 3\n%s", off, Disassemble(code, nil))
	}
}

func TestAssemblerUndefinedLabel(t *testing.T) {
	a := NewAssembler()
	a.Jump(OpJmp, "nowhere")
	if _, err := a.Assemble(); err == nil {
		t.Fatal("undefined label must fail")
	}
}

func TestPushWidths(t *testing.T) {
	a := NewAssembler()
	a.Push(1)       // i8
	a.Push(300)     // i16
	a.Push(-40_000) // i32
	code, _ := a.Assemble()
	want := 2 + 3 + 5
	if len(code) != want {
		t.Fatalf("code length = %d, want %d", len(code), want)
	}
	if Op(code[0]) != OpPushI8 || Op(code[2]) != OpPushI16 || Op(code[5]) != OpPushI32 {
		t.Fatalf("wrong opcodes: %s", Disassemble(code, nil))
	}
}

func TestDisassembleProgram(t *testing.T) {
	p := sampleProgram(t)
	text := DisassembleProgram(p)
	for _, want := range []string{"device 0xad1cbe01", "import uart", "event init/0", "error timeOut/0", "this.readDone/0"} {
		if !strings.Contains(text, want) {
			t.Errorf("disassembly missing %q:\n%s", want, text)
		}
	}
}

func TestOperandWidthTotal(t *testing.T) {
	// Every defined opcode must have a non-negative width and a name.
	for op := Op(0); op < opCount; op++ {
		if op.OperandWidth() < 0 {
			t.Errorf("opcode %d has no operand width", op)
		}
		if strings.HasPrefix(op.String(), "op(") {
			t.Errorf("opcode %d has no name", op)
		}
	}
	if Op(250).OperandWidth() != -1 {
		t.Error("undefined opcode must report width -1")
	}
}

func TestEncodeDeterministic(t *testing.T) {
	f := func(seed int64) bool {
		p := sampleProgram(t)
		a, err1 := p.Encode()
		b, err2 := p.Encode()
		return err1 == nil && err2 == nil && bytes.Equal(a, b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}
