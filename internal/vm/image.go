package vm

import (
	"sync"

	"micropnp/internal/bytecode"
)

// Image is one verified, compiled driver: the decoded program, its handlers
// lowered to the block-threaded form and costed under DefaultAVRTimeModel,
// and the driver bytes it was loaded from. An Image is immutable once
// built, so every Machine instantiated from it — across Things and
// goroutines — shares it; a Machine owns only its statics and scratch.
type Image struct {
	prog *bytecode.Program
	// compiled holds the pre-decoded handlers in program order.
	compiled []*compiledHandler
	// code is the driver bytes the image was loaded from ("" when it was
	// compiled from a Program). A string, so the bytes cannot change under
	// the Images table that keys on them.
	code string
}

// Compile verifies a driver program and compiles its handlers to the
// direct-threaded form. A verified program that does not lower — possible
// only for an opcode added to the ISA without a compiled form — is an
// error naming the handler and byte PC, never a silent fallback.
func Compile(prog *bytecode.Program) (*Image, error) {
	if err := prog.Verify(); err != nil {
		return nil, err
	}
	compiled, err := compileProgram(prog)
	if err != nil {
		return nil, err
	}
	return &Image{prog: prog, compiled: compiled}, nil
}

// Program returns the decoded driver. It is shared: do not modify it.
func (img *Image) Program() *bytecode.Program { return img.prog }

// Code returns a copy of the driver bytes the image was loaded from (empty
// for an image compiled from a Program).
func (img *Image) Code() []byte { return []byte(img.code) }

// Instantiate builds a Machine with fresh statics over the image.
func (img *Image) Instantiate() *Machine {
	m := &Machine{img: img, Fuel: 100_000}
	m.statics = make([][]int32, len(img.prog.Statics))
	for i, s := range img.prog.Statics {
		m.statics[i] = make([]int32, s.Size)
	}
	return m
}

// Images is a content-addressed table of driver images: Things that
// install byte-identical drivers share one decoded, verified and compiled
// Image. It is keyed by the full driver bytes, not a hash, so a hit proves
// the bytes were already decoded and verified. Entries are never evicted;
// a table's owner (one per deployment) bounds it by the drivers its
// repository serves. Safe for concurrent use.
type Images struct {
	mu sync.Mutex
	m  map[string]*Image
}

// NewImages returns an empty table.
func NewImages() *Images { return &Images{m: map[string]*Image{}} }

// Load returns the image of a driver's bytes, decoding, verifying and
// compiling them on first sight. Bytes that fail to decode or verify are
// not retained.
func (t *Images) Load(code []byte) (*Image, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if img, ok := t.m[string(code)]; ok {
		return img, nil
	}
	prog, err := bytecode.Decode(code)
	if err != nil {
		return nil, err
	}
	img, err := Compile(prog)
	if err != nil {
		return nil, err
	}
	img.code = string(code)
	t.m[img.code] = img
	return img, nil
}

// Len returns the number of distinct drivers loaded.
func (t *Images) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.m)
}
