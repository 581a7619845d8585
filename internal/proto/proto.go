// Package proto implements the µPnP interaction protocol of Section 5.2:
// compact binary messages carried in UDP datagrams on port 6030, covering
// peripheral advertisement and discovery (messages 1–3), driver management
// (4–9) and peripheral data operations read/stream/write (10–17).
//
// Every message starts with a one-byte type and a 16-bit sequence number
// used to associate requests with replies. Peripheral metadata travels as
// type-length-value tuples.
package proto

import (
	"errors"
	"fmt"
	"sync"

	"micropnp/internal/hw"
)

// MsgType identifies a protocol message. The numbering follows the
// paper's Figures 10 and 11.
type MsgType uint8

// Protocol message types.
const (
	MsgUnsolicitedAdvert MsgType = 1  // Thing -> all-clients group
	MsgDiscovery         MsgType = 2  // client -> peripheral group
	MsgSolicitedAdvert   MsgType = 3  // Thing -> requesting client (unicast)
	MsgDriverInstallReq  MsgType = 4  // Thing -> manager (anycast)
	MsgDriverUpload      MsgType = 5  // manager -> Thing
	MsgDriverDiscovery   MsgType = 6  // manager -> Thing
	MsgDriverAdvert      MsgType = 7  // Thing -> manager
	MsgDriverRemovalReq  MsgType = 8  // manager -> Thing
	MsgDriverRemovalAck  MsgType = 9  // Thing -> manager
	MsgRead              MsgType = 10 // client -> Thing
	MsgData              MsgType = 11 // Thing -> client (also stream data, 14)
	MsgStream            MsgType = 12 // client -> Thing
	MsgEstablished       MsgType = 13 // Thing -> client
	MsgClosed            MsgType = 15 // Thing -> stream group
	MsgWrite             MsgType = 16 // client -> Thing
	MsgWriteAck          MsgType = 17 // Thing -> client
)

// msgTypeNames is indexed by MsgType; entry 14 is unused (stream data reuses
// MsgData). A package-level table, so String never allocates for known types.
var msgTypeNames = [...]string{
	MsgUnsolicitedAdvert: "unsolicited-advertisement",
	MsgDiscovery:         "discovery",
	MsgSolicitedAdvert:   "solicited-advertisement",
	MsgDriverInstallReq:  "driver-install-request",
	MsgDriverUpload:      "driver-upload",
	MsgDriverDiscovery:   "driver-discovery",
	MsgDriverAdvert:      "driver-advertisement",
	MsgDriverRemovalReq:  "driver-removal-request",
	MsgDriverRemovalAck:  "driver-removal-ack",
	MsgRead:              "read",
	MsgData:              "data",
	MsgStream:            "stream",
	MsgEstablished:       "established",
	MsgClosed:            "closed",
	MsgWrite:             "write",
	MsgWriteAck:          "write-ack",
}

func (t MsgType) String() string {
	if int(t) < len(msgTypeNames) && msgTypeNames[t] != "" {
		return msgTypeNames[t]
	}
	return fmt.Sprintf("msg(%d)", uint8(t))
}

// TLV tuple types used in advertisements and discovery filters.
const (
	TLVName    uint8 = 1 // human-readable peripheral name
	TLVBusKind uint8 = 2 // one byte, hw.BusKind
	TLVChannel uint8 = 3 // one byte, control-board channel
	TLVUnits   uint8 = 4 // unit string for produced values
)

// TLV is one type-length-value tuple.
type TLV struct {
	Type  uint8
	Value []byte
}

// PeripheralInfo describes one locally connected peripheral inside an
// advertisement: the 4-byte type identifier plus TLV metadata.
type PeripheralInfo struct {
	ID   hw.DeviceID
	TLVs []TLV
}

// Message is a decoded µPnP protocol message. Field usage depends on Type.
type Message struct {
	Type MsgType
	Seq  uint16

	// Peripherals: advertisements (1, 3).
	Peripherals []PeripheralInfo
	// Filter: discovery (2).
	Filter []TLV
	// DeviceID: driver management and data operations (4, 5, 8, 9, 10-17).
	DeviceID hw.DeviceID
	// Driver: bytecode payload (5); driver ID list (7) uses Drivers.
	Driver  []byte
	Drivers []hw.DeviceID
	// Status: acks (9, 17): 0 = ok.
	Status uint8
	// Data: values (11, 16).
	Data []byte
	// Group: the stream group address (13), 16 bytes.
	Group [16]byte
}

// ErrTruncated reports a short or malformed message.
var ErrTruncated = errors.New("proto: truncated message")

// HeaderLen is the length of the header every message starts with: the type
// byte and the big-endian sequence number.
const HeaderLen = 3

// AppendHeader appends a message header to dst. What follows it is the
// message's type-specific body, so a sender that keeps a body encoded can
// reuse it under any header of a type with the same layout.
func AppendHeader(dst []byte, typ MsgType, seq uint16) []byte {
	return append(dst, byte(typ), byte(seq>>8), byte(seq))
}

// Encode serialises the message into a fresh buffer. Hot paths should prefer
// AppendEncode with a reused (pooled) destination; Encode allocates per call.
func (m *Message) Encode() ([]byte, error) {
	return m.AppendEncode(nil)
}

// AppendEncode serialises the message, appending to dst (which may be nil or
// a truncated pooled buffer) and returning the extended slice. The encoding
// is identical to Encode's; on error dst is returned unmodified.
func (m *Message) AppendEncode(dst []byte) ([]byte, error) {
	buf := AppendHeader(dst, m.Type, m.Seq)
	switch m.Type {
	case MsgUnsolicitedAdvert, MsgSolicitedAdvert:
		if len(m.Peripherals) > 255 {
			return dst, errors.New("proto: too many peripherals")
		}
		buf = append(buf, byte(len(m.Peripherals)))
		for _, p := range m.Peripherals {
			buf = appendU32(buf, uint32(p.ID))
			var err error
			buf, err = appendTLVs(buf, p.TLVs)
			if err != nil {
				return dst, err
			}
		}
	case MsgDiscovery:
		var err error
		buf, err = appendTLVs(buf, m.Filter)
		if err != nil {
			return dst, err
		}
	case MsgDriverInstallReq, MsgDriverRemovalReq, MsgRead, MsgStream, MsgClosed:
		buf = appendU32(buf, uint32(m.DeviceID))
	case MsgDriverUpload:
		buf = appendU32(buf, uint32(m.DeviceID))
		if len(m.Driver) > 0xffff {
			return dst, errors.New("proto: driver too large")
		}
		buf = append(buf, byte(len(m.Driver)>>8), byte(len(m.Driver)))
		buf = append(buf, m.Driver...)
	case MsgDriverDiscovery:
		// type + seq only
	case MsgDriverAdvert:
		if len(m.Drivers) > 255 {
			return dst, errors.New("proto: too many drivers")
		}
		buf = append(buf, byte(len(m.Drivers)))
		for _, id := range m.Drivers {
			buf = appendU32(buf, uint32(id))
		}
	case MsgDriverRemovalAck, MsgWriteAck:
		buf = appendU32(buf, uint32(m.DeviceID))
		buf = append(buf, m.Status)
	case MsgData, MsgWrite:
		buf = appendU32(buf, uint32(m.DeviceID))
		if len(m.Data) > 255 {
			return dst, errors.New("proto: data too large")
		}
		buf = append(buf, byte(len(m.Data)))
		buf = append(buf, m.Data...)
	case MsgEstablished:
		buf = appendU32(buf, uint32(m.DeviceID))
		buf = append(buf, m.Group[:]...)
	default:
		return dst, fmt.Errorf("proto: cannot encode type %v", m.Type)
	}
	return buf, nil
}

// Decode parses a datagram payload.
func Decode(data []byte) (*Message, error) {
	r := &reader{data: data}
	m := &Message{}
	m.Type = MsgType(r.u8())
	m.Seq = r.u16()
	switch m.Type {
	case MsgUnsolicitedAdvert, MsgSolicitedAdvert:
		n := int(r.u8())
		for i := 0; i < n && r.err == nil; i++ {
			var p PeripheralInfo
			p.ID = hw.DeviceID(r.u32())
			p.TLVs = r.tlvs()
			m.Peripherals = append(m.Peripherals, p)
		}
	case MsgDiscovery:
		m.Filter = r.tlvs()
	case MsgDriverInstallReq, MsgDriverRemovalReq, MsgRead, MsgStream, MsgClosed:
		m.DeviceID = hw.DeviceID(r.u32())
	case MsgDriverUpload:
		m.DeviceID = hw.DeviceID(r.u32())
		n := int(r.u16())
		m.Driver = append([]byte(nil), r.bytes(n)...)
	case MsgDriverDiscovery:
	case MsgDriverAdvert:
		n := int(r.u8())
		for i := 0; i < n && r.err == nil; i++ {
			m.Drivers = append(m.Drivers, hw.DeviceID(r.u32()))
		}
	case MsgDriverRemovalAck, MsgWriteAck:
		m.DeviceID = hw.DeviceID(r.u32())
		m.Status = r.u8()
	case MsgData, MsgWrite:
		m.DeviceID = hw.DeviceID(r.u32())
		n := int(r.u8())
		m.Data = append([]byte(nil), r.bytes(n)...)
	case MsgEstablished:
		m.DeviceID = hw.DeviceID(r.u32())
		copy(m.Group[:], r.bytes(16))
	default:
		return nil, fmt.Errorf("proto: unknown message type %d", m.Type)
	}
	if r.err != nil {
		return nil, r.err
	}
	if r.pos != len(r.data) {
		return nil, fmt.Errorf("proto: %d trailing bytes in %v", len(r.data)-r.pos, m.Type)
	}
	return m, nil
}

func appendU32(buf []byte, v uint32) []byte {
	return append(buf, byte(v>>24), byte(v>>16), byte(v>>8), byte(v))
}

func appendTLVs(buf []byte, tlvs []TLV) ([]byte, error) {
	if len(tlvs) > 255 {
		return nil, errors.New("proto: too many TLVs")
	}
	buf = append(buf, byte(len(tlvs)))
	for _, t := range tlvs {
		if len(t.Value) > 255 {
			return nil, errors.New("proto: TLV value too long")
		}
		buf = append(buf, t.Type, byte(len(t.Value)))
		buf = append(buf, t.Value...)
	}
	return buf, nil
}

type reader struct {
	data []byte
	pos  int
	err  error
}

func (r *reader) bytes(n int) []byte {
	if r.err != nil || n < 0 || r.pos+n > len(r.data) {
		r.err = ErrTruncated
		return nil
	}
	// Three-index slice: borrowed views must not be able to append into the
	// bytes that follow them in the datagram.
	b := r.data[r.pos : r.pos+n : r.pos+n]
	r.pos += n
	return b
}

func (r *reader) u8() uint8 {
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

func (r *reader) tlvs() []TLV {
	n := int(r.u8())
	var out []TLV
	for i := 0; i < n && r.err == nil; i++ {
		typ := r.u8()
		ln := int(r.u8())
		val := append([]byte(nil), r.bytes(ln)...)
		if r.err == nil {
			out = append(out, TLV{Type: typ, Value: val})
		}
	}
	return out
}

// appendTLVs is the borrowing variant of tlvs: parsed values alias r.data and
// tuples are appended to dst (Decoder scratch) instead of a fresh slice.
func (r *reader) appendTLVs(dst []TLV) []TLV {
	n := int(r.u8())
	for i := 0; i < n && r.err == nil; i++ {
		typ := r.u8()
		ln := int(r.u8())
		val := r.bytes(ln)
		if r.err == nil {
			dst = append(dst, TLV{Type: typ, Value: val})
		}
	}
	return dst
}

// Decoder is the allocation-free counterpart of Decode: it parses datagrams
// into a reusable Message whose slices (Peripherals, TLVs, Filter, Drivers)
// are scratch owned by the Decoder and whose byte fields (TLV values, Driver,
// Data) alias the input buffer. The returned message is therefore BORROWED:
// it is valid only until the next Decode call on the same Decoder and only
// while the input buffer lives — retain parts with an explicit copy. A
// Decoder is not safe for concurrent use; pool instances with
// AcquireDecoder/ReleaseDecoder when handlers run on pool workers.
type Decoder struct {
	msg     Message
	periphs []PeripheralInfo
	tlvs    []TLV
	spans   [][2]int // per-peripheral [start, end) into tlvs
	drivers []hw.DeviceID
}

var decoderPool = sync.Pool{New: func() any { return new(Decoder) }}

// AcquireDecoder returns a pooled Decoder. Release it with ReleaseDecoder
// once the decoded message is no longer referenced.
func AcquireDecoder() *Decoder { return decoderPool.Get().(*Decoder) }

// ReleaseDecoder returns a Decoder to the pool. The caller must not touch the
// Decoder or any message it produced afterwards.
func ReleaseDecoder(d *Decoder) { decoderPool.Put(d) }

// Decode parses a datagram payload into the Decoder's scratch message. The
// wire format accepted and the resulting field values are identical to the
// package-level Decode; only the memory discipline differs (see the type
// comment). Steady state it performs no heap allocation.
func (d *Decoder) Decode(data []byte) (*Message, error) {
	r := reader{data: data}
	m := &d.msg
	*m = Message{}
	d.periphs = d.periphs[:0]
	d.tlvs = d.tlvs[:0]
	d.spans = d.spans[:0]
	d.drivers = d.drivers[:0]
	m.Type = MsgType(r.u8())
	m.Seq = r.u16()
	switch m.Type {
	case MsgUnsolicitedAdvert, MsgSolicitedAdvert:
		n := int(r.u8())
		for i := 0; i < n && r.err == nil; i++ {
			id := hw.DeviceID(r.u32())
			start := len(d.tlvs)
			d.tlvs = r.appendTLVs(d.tlvs)
			if r.err != nil {
				break
			}
			d.periphs = append(d.periphs, PeripheralInfo{ID: id})
			d.spans = append(d.spans, [2]int{start, len(d.tlvs)})
		}
		// Fix up the TLV sub-slices only after all appends: growth may have
		// moved d.tlvs' backing array.
		for i := range d.periphs {
			s := d.spans[i]
			d.periphs[i].TLVs = d.tlvs[s[0]:s[1]:s[1]]
		}
		m.Peripherals = d.periphs
	case MsgDiscovery:
		d.tlvs = r.appendTLVs(d.tlvs)
		m.Filter = d.tlvs
	case MsgDriverInstallReq, MsgDriverRemovalReq, MsgRead, MsgStream, MsgClosed:
		m.DeviceID = hw.DeviceID(r.u32())
	case MsgDriverUpload:
		m.DeviceID = hw.DeviceID(r.u32())
		n := int(r.u16())
		m.Driver = r.bytes(n)
	case MsgDriverDiscovery:
	case MsgDriverAdvert:
		n := int(r.u8())
		for i := 0; i < n && r.err == nil; i++ {
			d.drivers = append(d.drivers, hw.DeviceID(r.u32()))
		}
		m.Drivers = d.drivers
	case MsgDriverRemovalAck, MsgWriteAck:
		m.DeviceID = hw.DeviceID(r.u32())
		m.Status = r.u8()
	case MsgData, MsgWrite:
		m.DeviceID = hw.DeviceID(r.u32())
		n := int(r.u8())
		m.Data = r.bytes(n)
	case MsgEstablished:
		m.DeviceID = hw.DeviceID(r.u32())
		copy(m.Group[:], r.bytes(16))
	default:
		return nil, fmt.Errorf("proto: unknown message type %d", m.Type)
	}
	if r.err != nil {
		return nil, r.err
	}
	if r.pos != len(r.data) {
		return nil, fmt.Errorf("proto: %d trailing bytes in %v", len(r.data)-r.pos, m.Type)
	}
	return m, nil
}

// Values32 packs int32 values into a Data payload (big-endian), the format
// drivers' return values travel in.
func Values32(vals []int32) []byte {
	return AppendValues32(make([]byte, 0, len(vals)*4), vals)
}

// AppendValues32 packs int32 values into a Data payload appended to dst and
// returns the extended slice — the allocation-free variant of Values32 for
// hot paths that own a reusable scratch buffer (pass dst[:0] to reuse it).
func AppendValues32(dst []byte, vals []int32) []byte {
	for _, v := range vals {
		dst = appendU32(dst, uint32(v))
	}
	return dst
}

// ParseValues32 unpacks a Data payload into int32 values.
func ParseValues32(data []byte) ([]int32, error) {
	return AppendParseValues32(nil, data)
}

// AppendParseValues32 unpacks a Data payload, appending the values to dst,
// and returns the extended slice — the caller-scratch variant of
// ParseValues32 for hot paths that reuse a value buffer across requests
// (pass scratch[:0] to reuse it; with a nil dst it behaves exactly like
// ParseValues32). dst is returned unchanged on error.
func AppendParseValues32(dst []int32, data []byte) ([]int32, error) {
	if len(data)%4 != 0 {
		return dst, fmt.Errorf("proto: data length %d is not a multiple of 4", len(data))
	}
	n := len(data) / 4
	if cap(dst)-len(dst) < n {
		grown := make([]int32, len(dst), len(dst)+n)
		copy(grown, dst)
		dst = grown
	}
	for i := 0; i < n; i++ {
		dst = append(dst, int32(uint32(data[4*i])<<24|uint32(data[4*i+1])<<16|uint32(data[4*i+2])<<8|uint32(data[4*i+3])))
	}
	return dst, nil
}

// ValuesBytes packs int32 values as single bytes (for byte-oriented
// peripherals like the RFID reader's ASCII payload).
func ValuesBytes(vals []int32) []byte {
	out := make([]byte, len(vals))
	for i, v := range vals {
		out[i] = byte(v)
	}
	return out
}
