package bytecode

import (
	"errors"
	"fmt"
)

// HandlerKind distinguishes regular event handlers from error handlers.
// Error handlers are dispatched through the router's priority queue
// (Section 4.2).
type HandlerKind uint8

// Handler kinds.
const (
	KindEvent HandlerKind = 0
	KindError HandlerKind = 1
)

func (k HandlerKind) String() string {
	if k == KindError {
		return "error"
	}
	return "event"
}

// Handler is one compiled event or error handler.
type Handler struct {
	Kind    HandlerKind
	Name    string
	NParams uint8
	Code    []byte
}

// StaticDef declares one static slot: scalars have Size 1, arrays their
// declared length.
type StaticDef struct {
	Size uint16
}

// Program is a compiled µPnP driver.
type Program struct {
	// DeviceID is the peripheral type this driver serves.
	DeviceID uint32
	// Statics declares the driver's state slots.
	Statics []StaticDef
	// Imports names the native interconnect libraries the driver uses.
	Imports []string
	// Consts is the constant pool (strings: signal destinations and event
	// names).
	Consts []string
	// Handlers in declaration order.
	Handlers []Handler
}

// Magic identifies serialized µPnP driver bytecode.
var Magic = [4]byte{0xB5, 'u', 'P', 'C'}

// Version of the wire format.
const Version = 1

// Limits of the compact format.
const (
	MaxStatics  = 255
	MaxImports  = 255
	MaxConsts   = 255
	MaxHandlers = 255
	MaxCodeLen  = 65535
	MaxLocals   = 16
)

// Static memory limits, in 32-bit cells, checked by Verify: the wire format
// would let one driver declare 255 statics of 65 535 cells (66.8 MB per
// Machine). MaxStaticSize is the DSL's array length cap. MaxStaticCells
// bounds a driver's statics together: twice that cap, about 480 times the
// 17 cells of the largest embedded driver (bmp180), so 32 KiB per Machine.
const (
	MaxStaticSize  = 4096
	MaxStaticCells = 2 * MaxStaticSize
)

// Handler returns the named handler, or nil.
func (p *Program) Handler(name string) *Handler {
	for i := range p.Handlers {
		if p.Handlers[i].Name == name {
			return &p.Handlers[i]
		}
	}
	return nil
}

// Encode serializes the program to the compact wire format distributed
// over the air.
func (p *Program) Encode() ([]byte, error) {
	if len(p.Statics) > MaxStatics || len(p.Imports) > MaxImports ||
		len(p.Consts) > MaxConsts || len(p.Handlers) > MaxHandlers {
		return nil, errors.New("bytecode: program exceeds format limits")
	}
	buf := make([]byte, 0, 128)
	buf = append(buf, Magic[:]...)
	buf = append(buf, Version)
	buf = be32(buf, p.DeviceID)
	buf = append(buf, byte(len(p.Statics)))
	for _, s := range p.Statics {
		buf = be16(buf, s.Size)
	}
	buf = append(buf, byte(len(p.Imports)))
	for _, im := range p.Imports {
		if len(im) > 255 {
			return nil, fmt.Errorf("bytecode: import name %q too long", im)
		}
		buf = append(buf, byte(len(im)))
		buf = append(buf, im...)
	}
	buf = append(buf, byte(len(p.Consts)))
	for _, c := range p.Consts {
		if len(c) > 255 {
			return nil, fmt.Errorf("bytecode: constant %q too long", c)
		}
		buf = append(buf, byte(len(c)))
		buf = append(buf, c...)
	}
	buf = append(buf, byte(len(p.Handlers)))
	for _, h := range p.Handlers {
		if len(h.Name) > 255 {
			return nil, fmt.Errorf("bytecode: handler name %q too long", h.Name)
		}
		if len(h.Code) > MaxCodeLen {
			return nil, fmt.Errorf("bytecode: handler %q code too long", h.Name)
		}
		buf = append(buf, byte(h.Kind), h.NParams, byte(len(h.Name)))
		buf = append(buf, h.Name...)
		buf = be16(buf, uint16(len(h.Code)))
		buf = append(buf, h.Code...)
	}
	return buf, nil
}

// ErrBadFormat reports malformed driver bytecode.
var ErrBadFormat = errors.New("bytecode: malformed driver")

// Decode parses the wire format. The returned program shares no memory with
// data.
func Decode(data []byte) (*Program, error) {
	r := reader{data: data}
	var magic [4]byte
	copy(magic[:], r.bytes(4))
	if r.err != nil || magic != Magic {
		return nil, fmt.Errorf("%w: bad magic", ErrBadFormat)
	}
	if v := r.u8(); r.err != nil || v != Version {
		return nil, fmt.Errorf("%w: unsupported version %d", ErrBadFormat, v)
	}
	p := &Program{DeviceID: r.u32()}

	nStatics := int(r.u8())
	for i := 0; i < nStatics; i++ {
		p.Statics = append(p.Statics, StaticDef{Size: r.u16()})
	}
	nImports := int(r.u8())
	for i := 0; i < nImports; i++ {
		p.Imports = append(p.Imports, r.str())
	}
	nConsts := int(r.u8())
	for i := 0; i < nConsts; i++ {
		p.Consts = append(p.Consts, r.str())
	}
	nHandlers := int(r.u8())
	for i := 0; i < nHandlers; i++ {
		var h Handler
		h.Kind = HandlerKind(r.u8())
		h.NParams = r.u8()
		h.Name = r.str()
		codeLen := int(r.u16())
		h.Code = append([]byte(nil), r.bytes(codeLen)...)
		if r.err != nil {
			break
		}
		if h.Kind > KindError {
			return nil, fmt.Errorf("%w: bad handler kind %d", ErrBadFormat, h.Kind)
		}
		p.Handlers = append(p.Handlers, h)
	}
	if r.err != nil {
		return nil, fmt.Errorf("%w: truncated", ErrBadFormat)
	}
	if r.pos != len(r.data) {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrBadFormat, len(r.data)-r.pos)
	}
	return p, nil
}

// Size returns the encoded size in bytes (the Table 3 metric).
func (p *Program) Size() int {
	b, err := p.Encode()
	if err != nil {
		return 0
	}
	return len(b)
}

func be16(buf []byte, v uint16) []byte { return append(buf, byte(v>>8), byte(v)) }
func be32(buf []byte, v uint32) []byte {
	return append(buf, byte(v>>24), byte(v>>16), byte(v>>8), byte(v))
}

type reader struct {
	data []byte
	pos  int
	err  error
}

func (r *reader) bytes(n int) []byte {
	if r.err != nil || n < 0 || r.pos+n > len(r.data) {
		r.err = ErrBadFormat
		return nil
	}
	b := r.data[r.pos : r.pos+n]
	r.pos += n
	return b
}

func (r *reader) u8() byte {
	b := r.bytes(1)
	if r.err != nil {
		return 0
	}
	return b[0]
}

func (r *reader) u16() uint16 {
	b := r.bytes(2)
	if r.err != nil {
		return 0
	}
	return uint16(b[0])<<8 | uint16(b[1])
}

func (r *reader) u32() uint32 {
	b := r.bytes(4)
	if r.err != nil {
		return 0
	}
	return uint32(b[0])<<24 | uint32(b[1])<<16 | uint32(b[2])<<8 | uint32(b[3])
}

func (r *reader) str() string {
	n := int(r.u8())
	b := r.bytes(n)
	if r.err != nil {
		return ""
	}
	return string(b)
}
