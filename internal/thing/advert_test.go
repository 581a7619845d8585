package thing

import (
	"bytes"
	"strings"
	"testing"

	"micropnp/internal/driver"
	"micropnp/internal/hw"
	"micropnp/internal/netsim"
	"micropnp/internal/proto"
)

// advertBed is a Thing with three preinstalled drivers and a root node that
// records the raw bytes of every advertisement it receives: unsolicited ones
// on the all-clients group and solicited replies to its own discoveries.
type advertBed struct {
	net   *netsim.Network
	root  *netsim.Node
	thing *Thing
	got   [][]byte
}

func newAdvertBed(t *testing.T, name string, units map[hw.DeviceID]string) *advertBed {
	t.Helper()
	n := netsim.New(netsim.Config{})
	root, err := n.AddNode(addr("2001:db8::1"), nil)
	if err != nil {
		t.Fatal(err)
	}
	ab := &advertBed{net: n, root: root}
	root.JoinGroup(netsim.AllClientsAddr(netsim.PrefixFromAddr(root.Addr())))
	root.Bind(func(m netsim.Message) {
		if len(m.Payload) > 0 && (proto.MsgType(m.Payload[0]) == proto.MsgUnsolicitedAdvert ||
			proto.MsgType(m.Payload[0]) == proto.MsgSolicitedAdvert) {
			ab.got = append(ab.got, append([]byte(nil), m.Payload...))
		}
	})
	th, err := New(Config{Network: n, Addr: addr("2001:db8::2"), Parent: root, Manager: root.Addr(),
		Name: name, Units: units})
	if err != nil {
		t.Fatal(err)
	}
	repo, err := driver.StandardRepository()
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []hw.DeviceID{driver.IDTMP36, driver.IDHIH4030, driver.IDBMP180} {
		e, ok := repo.Lookup(id)
		if !ok {
			t.Fatalf("driver %v missing", id)
		}
		if err := th.InstallDriver(id, e.Bytecode); err != nil {
			t.Fatal(err)
		}
	}
	ab.thing = th
	return ab
}

// placed is one peripheral an advert is expected to list.
type placed struct {
	ch  int
	id  hw.DeviceID
	bus hw.BusKind
}

// wantAdvert encodes, with a freshly built message, the advertisement a
// Thing named name with the given units table must send for ps.
func wantAdvert(t *testing.T, typ proto.MsgType, seq uint16, name string, units map[hw.DeviceID]string, ps ...placed) []byte {
	t.Helper()
	m := &proto.Message{Type: typ, Seq: seq}
	for _, p := range ps {
		info := proto.PeripheralInfo{ID: p.id}
		if name != "" {
			info.TLVs = append(info.TLVs, proto.TLV{Type: proto.TLVName, Value: []byte(name)})
		}
		info.TLVs = append(info.TLVs,
			proto.TLV{Type: proto.TLVBusKind, Value: []byte{byte(p.bus)}},
			proto.TLV{Type: proto.TLVChannel, Value: []byte{byte(p.ch)}})
		if u := units[p.id]; u != "" {
			info.TLVs = append(info.TLVs, proto.TLV{Type: proto.TLVUnits, Value: []byte(u)})
		}
		m.Peripherals = append(m.Peripherals, info)
	}
	b, err := m.AppendEncode(nil)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func (ab *advertBed) plug(t *testing.T, ch int, id hw.DeviceID, bus hw.BusKind) {
	t.Helper()
	p, err := hw.NewPeripheral(hw.PeripheralSpec{ID: id, Bus: bus})
	if err != nil {
		t.Fatal(err)
	}
	if err := ab.thing.Plug(ch, p, nil); err != nil {
		t.Fatal(err)
	}
	ab.net.RunUntilIdle(0)
}

func (ab *advertBed) unplug(t *testing.T, ch int) {
	t.Helper()
	if err := ab.thing.Unplug(ch); err != nil {
		t.Fatal(err)
	}
	ab.net.RunUntilIdle(0)
}

// discover multicasts a wildcard discovery with the given sequence number.
func (ab *advertBed) discover(t *testing.T, seq uint16) {
	t.Helper()
	b, err := (&proto.Message{Type: proto.MsgDiscovery, Seq: seq}).Encode()
	if err != nil {
		t.Fatal(err)
	}
	ab.root.Send(netsim.AllPeripheralsAddr(netsim.PrefixFromAddr(ab.thing.Addr())), b)
	ab.net.RunUntilIdle(0)
}

// expect checks that exactly one advert arrived since the last check, of
// the given type, and that its bytes equal the fresh encoding of ps under
// the advert's own sequence number.
func (ab *advertBed) expect(t *testing.T, step string, typ proto.MsgType, ps ...placed) {
	t.Helper()
	if len(ab.got) != 1 {
		t.Fatalf("%s: %d adverts arrived, want 1", step, len(ab.got))
	}
	got := ab.got[0]
	ab.got = ab.got[:0]
	seq := uint16(got[1])<<8 | uint16(got[2])
	want := wantAdvert(t, typ, seq, ab.thing.cfg.Name, ab.thing.cfg.Units, ps...)
	if !bytes.Equal(got, want) {
		t.Fatalf("%s: advert\n% x\nwant\n% x", step, got, want)
	}
}

// TestAdvertBodyMatchesFreshEncoding walks a Thing through plug-in,
// discovery, hot-swap, a manager-driven driver removal and unplug, and
// checks every advert it sends, byte for byte, against AppendEncode of a
// freshly built message: the cached body must never go stale.
func TestAdvertBodyMatchesFreshEncoding(t *testing.T) {
	// TMP36 and BMP180 advertise units, the HIH-4030 none.
	units := map[hw.DeviceID]string{driver.IDTMP36: "0.1°C", driver.IDBMP180: "0.1°C,Pa"}
	ab := newAdvertBed(t, "lab", units)
	tmp := placed{0, driver.IDTMP36, hw.BusADC}
	hih := placed{2, driver.IDHIH4030, hw.BusADC}
	bmp := placed{0, driver.IDBMP180, hw.BusI2C}

	ab.plug(t, tmp.ch, tmp.id, tmp.bus)
	ab.expect(t, "plug TMP36", proto.MsgUnsolicitedAdvert, tmp)
	ab.plug(t, hih.ch, hih.id, hih.bus)
	ab.expect(t, "plug HIH-4030", proto.MsgUnsolicitedAdvert, tmp, hih)
	ab.discover(t, 0x1234)
	ab.expect(t, "discovery", proto.MsgSolicitedAdvert, tmp, hih)

	// Hot-swap channel 0: the unplug advertises the remaining peripheral,
	// the new one's activation both.
	ab.unplug(t, tmp.ch)
	ab.expect(t, "unplug TMP36", proto.MsgUnsolicitedAdvert, hih)
	ab.plug(t, bmp.ch, bmp.id, bmp.bus)
	ab.expect(t, "plug BMP180", proto.MsgUnsolicitedAdvert, bmp, hih)

	// The manager removes the HIH-4030 driver: no advert is sent, but the
	// next discovery reply must no longer list the peripheral.
	rm, err := (&proto.Message{Type: proto.MsgDriverRemovalReq, Seq: 9, DeviceID: hih.id}).Encode()
	if err != nil {
		t.Fatal(err)
	}
	ab.root.Send(ab.thing.Addr(), rm)
	ab.net.RunUntilIdle(0)
	if len(ab.got) != 0 {
		t.Fatalf("driver removal sent %d adverts, want none", len(ab.got))
	}
	ab.discover(t, 0x1235)
	ab.expect(t, "discovery after driver removal", proto.MsgSolicitedAdvert, bmp)

	// Unplugging the last active peripheral advertises an empty list, and a
	// Thing with nothing to list does not answer discoveries.
	ab.unplug(t, bmp.ch)
	ab.expect(t, "unplug BMP180", proto.MsgUnsolicitedAdvert)
	ab.discover(t, 0x1236)
	if len(ab.got) != 0 {
		t.Fatalf("a Thing with no active peripheral answered a discovery")
	}
}

// TestAdvertBodyWithoutName checks the encoding of a Thing with an empty
// name, which leaves the name TLV out.
func TestAdvertBodyWithoutName(t *testing.T) {
	ab := newAdvertBed(t, "", nil)
	hih := placed{1, driver.IDHIH4030, hw.BusADC}
	ab.plug(t, hih.ch, hih.id, hih.bus)
	ab.expect(t, "plug HIH-4030", proto.MsgUnsolicitedAdvert, hih)
	ab.discover(t, 7)
	ab.expect(t, "discovery", proto.MsgSolicitedAdvert, hih)
}

// TestAdvertNotEncodable gives a Thing a name too long for a TLV: its
// advertisement does not encode, so it sends none, solicited or not.
func TestAdvertNotEncodable(t *testing.T) {
	ab := newAdvertBed(t, strings.Repeat("n", 256), nil)
	ab.plug(t, 0, driver.IDTMP36, hw.BusADC)
	if ab.thing.Runtime(driver.IDTMP36) == nil {
		t.Fatal("driver not active")
	}
	ab.discover(t, 7)
	if len(ab.got) != 0 {
		t.Fatalf("%d adverts sent, want none", len(ab.got))
	}
}
