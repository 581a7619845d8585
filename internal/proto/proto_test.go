package proto

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"micropnp/internal/hw"
)

func roundTrip(t *testing.T, m *Message) *Message {
	t.Helper()
	data, err := m.Encode()
	if err != nil {
		t.Fatalf("encode %v: %v", m.Type, err)
	}
	got, err := Decode(data)
	if err != nil {
		t.Fatalf("decode %v: %v", m.Type, err)
	}
	return got
}

func TestRoundTripAllTypes(t *testing.T) {
	var group [16]byte
	copy(group[:], []byte{0xff, 0x3e, 0, 0x30, 0x20, 0x01, 0x0d, 0xb8, 0, 0, 0, 0, 0xed, 0x3f, 0x0a, 0xc1})
	msgs := []*Message{
		{Type: MsgUnsolicitedAdvert, Seq: 1, Peripherals: []PeripheralInfo{
			{ID: 0xad1cbe01, TLVs: []TLV{{Type: TLVName, Value: []byte("TMP36")}, {Type: TLVBusKind, Value: []byte{0}}}},
			{ID: 0xed3f0ac1},
		}},
		{Type: MsgDiscovery, Seq: 2, Filter: []TLV{{Type: TLVBusKind, Value: []byte{1}}}},
		{Type: MsgDiscovery, Seq: 3},
		{Type: MsgSolicitedAdvert, Seq: 4, Peripherals: []PeripheralInfo{{ID: 1}}},
		{Type: MsgDriverInstallReq, Seq: 5, DeviceID: 0xad1cbe01},
		{Type: MsgDriverUpload, Seq: 6, DeviceID: 0xad1cbe01, Driver: bytes.Repeat([]byte{0xB5}, 80)},
		{Type: MsgDriverDiscovery, Seq: 7},
		{Type: MsgDriverAdvert, Seq: 8, Drivers: []hw.DeviceID{1, 2, 0xffff0000}},
		{Type: MsgDriverRemovalReq, Seq: 9, DeviceID: 3},
		{Type: MsgDriverRemovalAck, Seq: 10, DeviceID: 3, Status: 0},
		{Type: MsgRead, Seq: 11, DeviceID: 4},
		{Type: MsgData, Seq: 11, DeviceID: 4, Data: []byte{1, 2, 3, 4}},
		{Type: MsgStream, Seq: 12, DeviceID: 4},
		{Type: MsgEstablished, Seq: 12, DeviceID: 4, Group: group},
		{Type: MsgClosed, Seq: 13, DeviceID: 4},
		{Type: MsgWrite, Seq: 14, DeviceID: 5, Data: []byte{0x01}},
		{Type: MsgWriteAck, Seq: 14, DeviceID: 5, Status: 1},
	}
	for _, m := range msgs {
		got := roundTrip(t, m)
		if !reflect.DeepEqual(m, got) {
			t.Errorf("%v round trip mismatch:\n in: %+v\nout: %+v", m.Type, m, got)
		}
		if m.Type.String() == "" || len(m.Type.String()) < 3 {
			t.Errorf("%d needs a name", m.Type)
		}
	}
}

func TestSeqPreserved(t *testing.T) {
	f := func(seq uint16) bool {
		m := &Message{Type: MsgRead, Seq: seq, DeviceID: 9}
		return roundTrip(t, m).Seq == seq
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		nil,
		{},
		{99, 0, 0},                           // unknown type
		{byte(MsgRead), 0},                   // truncated seq
		{byte(MsgRead), 0, 1},                // missing device id
		{byte(MsgData), 0, 1, 0, 0, 0, 1, 5}, // data length 5 but no bytes
	}
	for i, data := range cases {
		if _, err := Decode(data); err == nil {
			t.Errorf("case %d must fail", i)
		}
	}
}

func TestDecodeRejectsTrailing(t *testing.T) {
	m := &Message{Type: MsgRead, Seq: 1, DeviceID: 2}
	data, _ := m.Encode()
	if _, err := Decode(append(data, 0)); err == nil {
		t.Fatal("trailing bytes must be rejected")
	}
}

func TestDecodeTruncationsNeverPanic(t *testing.T) {
	m := &Message{Type: MsgUnsolicitedAdvert, Seq: 1, Peripherals: []PeripheralInfo{
		{ID: 0xad1cbe01, TLVs: []TLV{{Type: TLVName, Value: []byte("BMP180")}}},
	}}
	data, _ := m.Encode()
	for n := 0; n < len(data); n++ {
		if _, err := Decode(data[:n]); err == nil {
			t.Fatalf("prefix %d must fail", n)
		}
	}
}

func TestDecodeFuzz(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	seed := [][]byte{}
	for _, m := range []*Message{
		{Type: MsgUnsolicitedAdvert, Peripherals: []PeripheralInfo{{ID: 7, TLVs: []TLV{{Type: 1, Value: []byte("x")}}}}},
		{Type: MsgDriverUpload, DeviceID: 7, Driver: bytes.Repeat([]byte{1}, 40)},
		{Type: MsgEstablished, DeviceID: 7},
	} {
		d, _ := m.Encode()
		seed = append(seed, d)
	}
	for i := 0; i < 3000; i++ {
		d := append([]byte(nil), seed[i%len(seed)]...)
		for j := 0; j < 1+rng.Intn(6); j++ {
			d[rng.Intn(len(d))] ^= byte(1 << rng.Intn(8))
		}
		if dec, err := Decode(d); err == nil {
			if _, err := dec.Encode(); err != nil {
				t.Fatalf("mutant decoded but re-encode failed: %v", err)
			}
		}
	}
}

func TestValues32RoundTrip(t *testing.T) {
	f := func(a, b, c int32) bool {
		vals := []int32{a, b, c}
		got, err := ParseValues32(Values32(vals))
		return err == nil && reflect.DeepEqual(got, vals)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := ParseValues32([]byte{1, 2, 3}); err == nil {
		t.Fatal("non-multiple-of-4 must fail")
	}
	if got := ValuesBytes([]int32{65, 66}); string(got) != "AB" {
		t.Fatalf("ValuesBytes = %q", got)
	}
}

func TestAppendValues32Scratch(t *testing.T) {
	vals := []int32{-5, 0, 1 << 30}
	want := Values32(vals)

	// Appending into a reused scratch produces identical bytes without
	// reallocating once capacity suffices.
	scratch := make([]byte, 0, 16)
	packed := AppendValues32(scratch[:0], vals)
	if !reflect.DeepEqual(packed, want) {
		t.Fatalf("AppendValues32 = %x, want %x", packed, want)
	}
	if &packed[0] != &scratch[:1][0] {
		t.Fatal("AppendValues32 must reuse the scratch's backing array")
	}
	// Appending preserves an existing prefix.
	prefixed := AppendValues32([]byte{0xff}, []int32{1})
	if !reflect.DeepEqual(prefixed, []byte{0xff, 0, 0, 0, 1}) {
		t.Fatalf("prefixed = %x", prefixed)
	}
}

func TestAppendParseValues32Scratch(t *testing.T) {
	vals := []int32{7, -1, 42}
	data := Values32(vals)

	// nil dst behaves exactly like ParseValues32.
	got, err := AppendParseValues32(nil, data)
	if err != nil || !reflect.DeepEqual(got, vals) {
		t.Fatalf("AppendParseValues32(nil) = %v, %v", got, err)
	}
	// A roomy scratch is reused, not reallocated.
	scratch := make([]int32, 0, 8)
	got, err = AppendParseValues32(scratch[:0], data)
	if err != nil || !reflect.DeepEqual(got, vals) {
		t.Fatalf("scratch parse = %v, %v", got, err)
	}
	if &got[0] != &scratch[:1][0] {
		t.Fatal("AppendParseValues32 must reuse the scratch's backing array")
	}
	// Recycling the returned slice across parses stays allocation-free.
	if allocs := testing.AllocsPerRun(100, func() {
		var perr error
		got, perr = AppendParseValues32(got[:0], data)
		if perr != nil {
			t.Fatal(perr)
		}
	}); allocs != 0 {
		t.Fatalf("steady-state scratch parse allocates %v per run", allocs)
	}
	// An existing prefix is preserved; errors leave dst unchanged.
	prefixed, err := AppendParseValues32([]int32{9}, Values32([]int32{1}))
	if err != nil || !reflect.DeepEqual(prefixed, []int32{9, 1}) {
		t.Fatalf("prefixed = %v, %v", prefixed, err)
	}
	if out, err := AppendParseValues32([]int32{9}, []byte{1, 2, 3}); err == nil || !reflect.DeepEqual(out, []int32{9}) {
		t.Fatalf("error case = %v, %v", out, err)
	}
}

// encodeOf reduces a message to its canonical wire form for comparisons that
// must ignore nil-versus-empty slice representation differences between the
// copying and borrowing decoders.
func encodeOf(t *testing.T, m *Message) []byte {
	t.Helper()
	b, err := m.Encode()
	if err != nil {
		t.Fatalf("encode %v: %v", m.Type, err)
	}
	return b
}

func TestDecoderMatchesDecode(t *testing.T) {
	var group [16]byte
	group[0], group[1] = 0xff, 0x3e
	msgs := []*Message{
		{Type: MsgUnsolicitedAdvert, Seq: 1, Peripherals: []PeripheralInfo{
			{ID: 0xad1cbe01, TLVs: []TLV{{Type: TLVName, Value: []byte("TMP36")}, {Type: TLVUnits, Value: []byte("0.1°C")}}},
			{ID: 0xed3f0ac1, TLVs: []TLV{{Type: TLVChannel, Value: []byte{2}}}},
		}},
		{Type: MsgDiscovery, Seq: 2, Filter: []TLV{{Type: TLVBusKind, Value: []byte{1}}}},
		{Type: MsgDriverUpload, Seq: 6, DeviceID: 0xad1cbe01, Driver: bytes.Repeat([]byte{0xB5}, 80)},
		{Type: MsgDriverAdvert, Seq: 8, Drivers: []hw.DeviceID{1, 2, 0xffff0000}},
		{Type: MsgData, Seq: 11, DeviceID: 4, Data: []byte{1, 2, 3, 4}},
		{Type: MsgEstablished, Seq: 12, DeviceID: 4, Group: group},
		{Type: MsgWriteAck, Seq: 14, DeviceID: 5, Status: 1},
	}
	var dec Decoder
	// Two passes: the second exercises scratch reuse after every shape.
	for pass := 0; pass < 2; pass++ {
		for _, m := range msgs {
			wire := encodeOf(t, m)
			got, err := dec.Decode(wire)
			if err != nil {
				t.Fatalf("pass %d: Decoder.Decode(%v): %v", pass, m.Type, err)
			}
			if !bytes.Equal(encodeOf(t, got), wire) {
				t.Errorf("pass %d: Decoder result for %v diverges from Decode:\n got %+v\nwant %+v", pass, m.Type, got, m)
			}
		}
	}
	// Rejection parity on malformed inputs.
	for i, bad := range [][]byte{nil, {}, {99, 0, 0}, {byte(MsgRead), 0, 1}} {
		if _, err := dec.Decode(bad); err == nil {
			t.Errorf("malformed case %d must fail", i)
		}
	}
}

func TestDecoderBorrowsInput(t *testing.T) {
	m := &Message{Type: MsgUnsolicitedAdvert, Seq: 1, Peripherals: []PeripheralInfo{
		{ID: 7, TLVs: []TLV{{Type: TLVName, Value: []byte("orig")}}},
	}}
	wire := encodeOf(t, m)
	var dec Decoder
	got, err := dec.Decode(wire)
	if err != nil {
		t.Fatal(err)
	}
	name := got.Peripherals[0].TLVs[0].Value
	if string(name) != "orig" {
		t.Fatalf("name = %q", name)
	}
	// The decoded TLV value aliases the wire buffer: mutating the buffer must
	// show through (that is the zero-copy contract callers must respect).
	copy(wire[len(wire)-4:], "XXXX")
	if string(name) != "XXXX" {
		t.Fatalf("borrowed view = %q, want XXXX (must alias input)", name)
	}
}

func TestDecoderReuseInvalidatesPrior(t *testing.T) {
	a := encodeOf(t, &Message{Type: MsgDriverAdvert, Seq: 1, Drivers: []hw.DeviceID{1, 2, 3}})
	b := encodeOf(t, &Message{Type: MsgDriverAdvert, Seq: 2, Drivers: []hw.DeviceID{9}})
	var dec Decoder
	first, err := dec.Decode(a)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dec.Decode(b); err != nil {
		t.Fatal(err)
	}
	// first and the second result are the same scratch message.
	if first.Seq != 2 || len(first.Drivers) != 1 {
		t.Fatalf("scratch not reused: %+v", first)
	}
}

func TestAppendEncodePreservesPrefix(t *testing.T) {
	m := &Message{Type: MsgRead, Seq: 3, DeviceID: 4}
	prefix := []byte("hdr")
	out, err := m.AppendEncode(append([]byte(nil), prefix...))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out[:3], prefix) {
		t.Fatalf("prefix clobbered: %q", out)
	}
	if !bytes.Equal(out[3:], encodeOf(t, m)) {
		t.Fatalf("appended encoding diverges from Encode: %x", out[3:])
	}
	// Errors must hand the destination back unmodified.
	bad := &Message{Type: MsgType(99)}
	out2, err := bad.AppendEncode(prefix)
	if err == nil || !bytes.Equal(out2, prefix) {
		t.Fatalf("error path: out=%q err=%v", out2, err)
	}
}

func TestHotPathAllocationFree(t *testing.T) {
	read := &Message{Type: MsgRead, Seq: 42, DeviceID: 0xad1cbe01}
	buf, err := read.AppendEncode(nil)
	if err != nil {
		t.Fatal(err)
	}
	var dec Decoder
	if _, err := dec.Decode(buf); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() {
		buf, _ = read.AppendEncode(buf[:0])
		if _, err := dec.Decode(buf); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("steady-state encode+decode allocates %.1f times per round trip", n)
	}
	if n := testing.AllocsPerRun(100, func() { _ = MsgRead.String() }); n != 0 {
		t.Fatalf("MsgType.String allocates %.1f times per call", n)
	}
}

func TestEncodeLimits(t *testing.T) {
	big := &Message{Type: MsgDriverUpload, Driver: make([]byte, 70000)}
	if _, err := big.Encode(); err == nil {
		t.Fatal("oversized driver must fail")
	}
	longData := &Message{Type: MsgData, Data: make([]byte, 300)}
	if _, err := longData.Encode(); err == nil {
		t.Fatal("oversized data must fail")
	}
	if _, err := (&Message{Type: MsgType(99)}).Encode(); err == nil {
		t.Fatal("unknown type must fail")
	}
}
