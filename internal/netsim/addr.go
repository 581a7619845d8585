package netsim

import (
	"fmt"
	"net/netip"

	"micropnp/internal/hw"
)

// Multicast addressing schema (Section 5.1, Figure 9):
//
//	| 32 bits    | 48 bits          | 16 bits | 32 bits      |
//	| ff3e:0030  | network prefix   | zero    | peripheral   |
//
// The first 32 bits are the fixed unicast-prefix-based multicast prefix
// 0xff3e0030 (flags 3 = prefix-based + rendezvous semantics per RFC 3306,
// scope e = global, and the µPnP protocol discriminator 0x0030 — port 6030's
// namesake). The last 32 bits carry the peripheral type identifier from the
// µPnP hardware, or one of the two reserved values.

// SchemaPrefix is the fixed leading 32 bits of every µPnP multicast address.
var SchemaPrefix = [4]byte{0xff, 0x3e, 0x00, 0x30}

// NetworkPrefix is the 48-bit routing prefix of a µPnP network (e.g.
// 2001:db8:0000::/48).
type NetworkPrefix [6]byte

// PrefixFromAddr extracts the 48-bit network prefix of a unicast address.
func PrefixFromAddr(a netip.Addr) NetworkPrefix {
	var p NetworkPrefix
	b := a.As16()
	copy(p[:], b[:6])
	return p
}

// MulticastAddr builds the group address for a peripheral type inside a
// network prefix (Figure 9).
func MulticastAddr(prefix NetworkPrefix, id hw.DeviceID) netip.Addr {
	return MulticastAddrZone(prefix, 0, id)
}

// MulticastAddrZone builds a location-scoped group address: the Section 9
// "location-aware multicast groups" extension reuses the schema's 16-bit
// padding field as a zone identifier, so clients can reason over both a
// class of device and its physical location. Zone 0 is the unscoped
// (Figure 9) form.
func MulticastAddrZone(prefix NetworkPrefix, zone uint16, id hw.DeviceID) netip.Addr {
	var b [16]byte
	copy(b[0:4], SchemaPrefix[:])
	copy(b[4:10], prefix[:])
	b[10] = byte(zone >> 8)
	b[11] = byte(zone)
	b[12] = byte(id >> 24)
	b[13] = byte(id >> 16)
	b[14] = byte(id >> 8)
	b[15] = byte(id)
	return netip.AddrFrom16(b)
}

// AllClientsAddr is the group of all µPnP clients in the prefix (reserved
// peripheral value 0xffffffff).
func AllClientsAddr(prefix NetworkPrefix) netip.Addr {
	return MulticastAddr(prefix, hw.DeviceIDAllClients)
}

// AllPeripheralsAddr is the group of all µPnP Things regardless of
// peripheral (reserved value 0x00000000).
func AllPeripheralsAddr(prefix NetworkPrefix) netip.Addr {
	return MulticastAddr(prefix, hw.DeviceIDAllPeripherals)
}

// ParseMulticast validates a zone-0 µPnP multicast address and extracts the
// network prefix and peripheral identifier.
func ParseMulticast(a netip.Addr) (NetworkPrefix, hw.DeviceID, error) {
	p, zone, id, err := ParseMulticastZone(a)
	if err != nil {
		return NetworkPrefix{}, 0, err
	}
	if zone != 0 {
		return NetworkPrefix{}, 0, fmt.Errorf("netsim: %v is zone-scoped (zone %d)", a, zone)
	}
	return p, id, nil
}

// ParseMulticastZone validates a µPnP multicast address (zone-scoped or
// not) and extracts the network prefix, zone and peripheral identifier. A
// stream group (see StreamGroup) carries no peripheral identifier; its
// discriminator differs from SchemaPrefix, so it does not parse.
func ParseMulticastZone(a netip.Addr) (NetworkPrefix, uint16, hw.DeviceID, error) {
	b := a.As16()
	if [4]byte{b[0], b[1], b[2], b[3]} != SchemaPrefix {
		return NetworkPrefix{}, 0, 0, fmt.Errorf("netsim: %v is not a µPnP multicast address", a)
	}
	var p NetworkPrefix
	copy(p[:], b[4:10])
	zone := uint16(b[10])<<8 | uint16(b[11])
	id := hw.DeviceID(b[12])<<24 | hw.DeviceID(b[13])<<16 | hw.DeviceID(b[14])<<8 | hw.DeviceID(b[15])
	return p, zone, id, nil
}

// Stream groups extend the schema, like the Section 9 zone field, so that a
// stream's data reaches only its subscribers. A Thing answers a stream
// request (13) with the group of the one stream it serves, which only that
// stream's subscribers join, and sends the stream's data and its close there:
//
//	| 16 bits | 8 bits  | 8 bits | 48 bits        | 16 bits | 32 bits |
//	| ff3e    | channel | 0x31   | network prefix | zone    | host    |
//
// The discriminator byte 0x31 sets the group apart from every Figure 9, zone
// and class group (0x30), so the Figure 9 parsers reject it. 128 bits cannot
// hold both the Thing's 48-bit zone and host fields and a 32-bit peripheral
// type, so the group names the peripheral compactly, by the board channel
// that serves it, in the byte before the discriminator: channel 0 is
// ff3e:0031. A Thing streams a peripheral type from the one channel that
// serves it, so the group is unique per (Thing, peripheral) for every Thing
// address of the UnicastAddr layout (bytes 6..9 zero), up to 2^32 hosts per
// zone and 256 channels per board.

// streamDiscriminator is the schema byte (byte 3) of a stream group.
const streamDiscriminator = 0x31

// MaxStreamChannels bounds the board channels a stream group can name.
const MaxStreamChannels = 256

// StreamGroup returns the group of the stream a Thing at address thing serves
// from a board channel (0 <= channel < MaxStreamChannels).
func StreamGroup(thing netip.Addr, channel int) netip.Addr {
	u := thing.As16()
	var b [16]byte
	b[0], b[1], b[2], b[3] = SchemaPrefix[0], SchemaPrefix[1], byte(channel), streamDiscriminator
	copy(b[4:10], u[0:6])
	copy(b[10:16], u[10:16])
	return netip.AddrFrom16(b)
}

// UnicastAddr builds a unicast host address inside a network prefix, with
// the same 16-bit field the multicast schema uses (bytes 10..11) carrying the
// host's address zone. Zone 0 with a small host number reproduces the classic
// 2001:db8::1xx layout; non-zero zones place the host in a zone partition the
// sharded simulator can run on its own event heap and worker.
func UnicastAddr(prefix NetworkPrefix, zone uint16, host uint32) netip.Addr {
	var b [16]byte
	copy(b[0:6], prefix[:])
	b[10] = byte(zone >> 8)
	b[11] = byte(zone)
	b[12] = byte(host >> 24)
	b[13] = byte(host >> 16)
	b[14] = byte(host >> 8)
	b[15] = byte(host)
	return netip.AddrFrom16(b)
}

// ZoneFromAddr extracts the 16-bit address zone of a unicast host address
// (bytes 10..11, mirroring the multicast schema's zone field). Classic
// 2001:db8::1xx addresses carry zone 0.
func ZoneFromAddr(a netip.Addr) uint16 {
	b := a.As16()
	return uint16(b[10])<<8 | uint16(b[11])
}

// ClassGroup returns the class-wildcard group address (the Section 9
// hierarchical-typing extension): Things serving a peripheral whose
// structured identifier carries this class join it alongside the exact
// type group.
func ClassGroup(prefix NetworkPrefix, class uint8) netip.Addr {
	return MulticastAddr(prefix, hw.ClassWildcard(class))
}

// IsUPnPMulticast reports whether a follows the Figure 9 schema (a stream
// group does not).
func IsUPnPMulticast(a netip.Addr) bool {
	_, _, err := ParseMulticast(a)
	return err == nil
}
