package client

import (
	"context"
	"errors"
	"net/netip"
	"testing"
	"time"

	"micropnp/internal/hw"
	"micropnp/internal/netsim"
	"micropnp/internal/proto"
)

func addr(s string) netip.Addr { return netip.MustParseAddr(s) }

// fakeThing is a scripted peer that answers protocol messages like a Thing.
type fakeThing struct {
	node   *netsim.Node
	net    *netsim.Network
	served hw.DeviceID
	// mute drops all requests when set, simulating an unresponsive Thing.
	mute bool
}

func newFakeThing(t *testing.T, n *netsim.Network, parent *netsim.Node, a netip.Addr, id hw.DeviceID) *fakeThing {
	t.Helper()
	node, err := n.AddNode(a, parent)
	if err != nil {
		t.Fatal(err)
	}
	f := &fakeThing{node: node, net: n, served: id}
	prefix := netsim.PrefixFromAddr(a)
	node.JoinGroup(netsim.MulticastAddr(prefix, id))
	node.JoinGroup(netsim.AllPeripheralsAddr(prefix))
	node.Bind(f.handle)
	return f
}

func (f *fakeThing) send(dst netip.Addr, m *proto.Message) {
	payload, _ := m.Encode()
	f.node.Send(dst, payload)
}

func (f *fakeThing) handle(msg netsim.Message) {
	m, err := proto.Decode(msg.Payload)
	if err != nil || f.mute {
		return
	}
	switch m.Type {
	case proto.MsgDiscovery:
		f.send(msg.Src, &proto.Message{Type: proto.MsgSolicitedAdvert, Seq: m.Seq,
			Peripherals: []proto.PeripheralInfo{{ID: f.served}}})
	case proto.MsgRead:
		f.send(msg.Src, &proto.Message{Type: proto.MsgData, Seq: m.Seq, DeviceID: m.DeviceID,
			Data: proto.Values32([]int32{123})})
	case proto.MsgWrite:
		f.send(msg.Src, &proto.Message{Type: proto.MsgWriteAck, Seq: m.Seq, DeviceID: m.DeviceID, Status: 0})
	case proto.MsgStream:
		group := netsim.MulticastAddr(netsim.PrefixFromAddr(f.node.Addr()), m.DeviceID)
		est := &proto.Message{Type: proto.MsgEstablished, Seq: m.Seq, DeviceID: m.DeviceID}
		copy(est.Group[:], group.AsSlice())
		f.send(msg.Src, est)
		// Two data messages, then close — after the established reply has
		// reached the subscriber and it has joined the group.
		f.net.Schedule(200*time.Millisecond, func() {
			f.send(group, &proto.Message{Type: proto.MsgData, Seq: m.Seq, DeviceID: m.DeviceID, Data: proto.Values32([]int32{1})})
		})
		f.net.Schedule(400*time.Millisecond, func() {
			f.send(group, &proto.Message{Type: proto.MsgData, Seq: m.Seq, DeviceID: m.DeviceID, Data: proto.Values32([]int32{2})})
		})
		f.net.Schedule(600*time.Millisecond, func() {
			f.send(group, &proto.Message{Type: proto.MsgClosed, Seq: m.Seq, DeviceID: m.DeviceID})
		})
	}
}

func setup(t *testing.T) (*netsim.Network, *Client, *fakeThing) {
	t.Helper()
	n := netsim.New(netsim.Config{})
	root, err := n.AddNode(addr("2001:db8::1"), nil)
	if err != nil {
		t.Fatal(err)
	}
	cl, err := New(Config{Network: n, Addr: addr("2001:db8::2"), Parent: root})
	if err != nil {
		t.Fatal(err)
	}
	ft := newFakeThing(t, n, root, addr("2001:db8::3"), 0xad1cbe01)
	return n, cl, ft
}

func TestClientDiscoverAndThings(t *testing.T) {
	n, cl, ft := setup(t)
	var collected []Advert
	cl.Discover(0xad1cbe01, 0, func(got []Advert) { collected = got })
	n.RunUntilIdle(0)

	adverts := cl.Adverts()
	if len(adverts) != 1 || !adverts[0].Solicited || adverts[0].Thing != ft.node.Addr() {
		t.Fatalf("adverts = %+v", adverts)
	}
	// The discovery window closes (at the default timeout) with the
	// solicited advertisements it gathered.
	if len(collected) != 1 || collected[0].Thing != ft.node.Addr() {
		t.Fatalf("collected = %+v", collected)
	}
	if got := cl.Things(0xad1cbe01); len(got) != 1 || got[0] != ft.node.Addr() {
		t.Fatalf("things = %v", got)
	}
	if got := cl.Things(0x9999); len(got) != 0 {
		t.Fatalf("things for absent type = %v", got)
	}
	if got := cl.Things(hw.DeviceIDAllPeripherals); len(got) != 1 {
		t.Fatalf("wildcard things = %v", got)
	}
}

func TestClientDiscoverEmptyWindow(t *testing.T) {
	n, cl, ft := setup(t)
	ft.mute = true
	done := false
	var collected []Advert
	cl.Discover(0xad1cbe01, 50*time.Millisecond, func(got []Advert) { done = true; collected = got })
	n.RunUntilIdle(0)
	if !done {
		t.Fatal("discovery window must close even with no replies")
	}
	if len(collected) != 0 {
		t.Fatalf("collected = %+v", collected)
	}
}

func TestClientReceivesUnsolicited(t *testing.T) {
	n, cl, ft := setup(t)
	var cbGot []Advert
	cl.AddAdvertHook(func(a Advert) { cbGot = append(cbGot, a) })

	// Thing broadcasts an unsolicited advertisement to all clients.
	ft.send(netsim.AllClientsAddr(netsim.PrefixFromAddr(ft.node.Addr())),
		&proto.Message{Type: proto.MsgUnsolicitedAdvert, Seq: 1,
			Peripherals: []proto.PeripheralInfo{{ID: 0xad1cbe01}}})
	n.RunUntilIdle(0)

	if len(cl.Adverts()) != 1 || cl.Adverts()[0].Solicited {
		t.Fatalf("adverts = %+v", cl.Adverts())
	}
	if len(cbGot) != 1 {
		t.Fatalf("callback fired %d times", len(cbGot))
	}
}

// advertise makes the fake Thing multicast an unsolicited advert of its
// peripheral carrying the given TLVs.
func (f *fakeThing) advertise(tlvs ...proto.TLV) {
	f.send(netsim.AllClientsAddr(netsim.PrefixFromAddr(f.node.Addr())),
		&proto.Message{Type: proto.MsgUnsolicitedAdvert, Seq: 1,
			Peripherals: []proto.PeripheralInfo{{ID: f.served, TLVs: tlvs}}})
}

// TestClientAdvertViewKeepsLatestPerPeripheral repeats a wildcard discovery:
// the view holds one advert per (Thing, peripheral) however many replies
// arrive, each slot holding the latest advert, and Things keeps the order
// in which the Things were first sighted.
func TestClientAdvertViewKeepsLatestPerPeripheral(t *testing.T) {
	n, cl, a := setup(t)
	b := newFakeThing(t, n, a.node, addr("2001:db8::4"), 0x9999)
	// b advertises first, so it leads the first-sighting order although
	// its address sorts after a's.
	b.advertise()
	n.RunUntilIdle(0)
	a.advertise()
	n.RunUntilIdle(0)
	want := []netip.Addr{b.node.Addr(), a.node.Addr()}
	for k := 1; k <= 3; k++ {
		var got []Advert
		cl.Discover(hw.DeviceIDAllPeripherals, 0, func(as []Advert) { got = as })
		n.RunUntilIdle(0)
		if len(got) != 2 {
			t.Fatalf("round %d: discovery collected %d adverts, want 2", k, len(got))
		}
		view := cl.Adverts()
		if len(view) != 2 {
			t.Fatalf("round %d: view holds %d adverts, want one per (Thing, peripheral): %+v", k, len(view), view)
		}
		for i, adv := range view {
			if adv.Thing != want[i] || !adv.Solicited {
				t.Fatalf("round %d: view[%d] = %+v, want the latest (solicited) advert of %v", k, i, adv, want[i])
			}
		}
		if things := cl.Things(hw.DeviceIDAllPeripherals); len(things) != 2 || things[0] != want[0] || things[1] != want[1] {
			t.Fatalf("round %d: things = %v, want first-sighting order %v", k, things, want)
		}
	}
}

// TestClientTerseRefreshKeepsUnits checks that a terse advert — the fake
// Thing's discovery reply carries no TLVs — replaces the latest advert but
// does not erase the units an earlier advert of the same peripheral gave.
func TestClientTerseRefreshKeepsUnits(t *testing.T) {
	n, cl, ft := setup(t)
	thing := ft.node.Addr()
	ft.advertise(proto.TLV{Type: proto.TLVUnits, Value: []byte("0.1°C")})
	n.RunUntilIdle(0)
	if u := cl.Units(thing, 0xad1cbe01); u != "0.1°C" {
		t.Fatalf("units = %q, want 0.1°C", u)
	}
	cl.Discover(0xad1cbe01, 0, nil)
	n.RunUntilIdle(0)
	view := cl.Adverts()
	if len(view) != 1 || !view[0].Solicited {
		t.Fatalf("view = %+v, want the terse solicited reply as the latest advert", view)
	}
	if _, ok := view[0].Peripheral.TLVString(proto.TLVUnits); ok {
		t.Fatalf("latest advert = %+v, want the terse reply as received", view[0])
	}
	if u := cl.Units(thing, 0xad1cbe01); u != "0.1°C" {
		t.Fatalf("units after a terse refresh = %q, want 0.1°C kept", u)
	}
	if u := cl.Units(addr("2001:db8::99"), 0xad1cbe01); u != "" {
		t.Fatalf("units of a Thing that never advertised = %q, want none", u)
	}
}

func TestClientReadAndWrite(t *testing.T) {
	n, cl, ft := setup(t)
	var vals []int32
	var readErr error
	cl.Read(ft.node.Addr(), 0xad1cbe01, 0, func(v []int32, err error) { vals, readErr = v, err })
	n.RunUntilIdle(0)
	if readErr != nil {
		t.Fatal(readErr)
	}
	if len(vals) != 1 || vals[0] != 123 {
		t.Fatalf("read = %v", vals)
	}

	var writeErr = errors.New("not called")
	cl.Write(ft.node.Addr(), 0xad1cbe01, []int32{7}, 0, func(err error) { writeErr = err })
	n.RunUntilIdle(0)
	if writeErr != nil {
		t.Fatalf("write error = %v", writeErr)
	}
}

// TestClientReadTimesOut is the headline fix of the API redesign: a read
// whose reply never arrives completes with ErrTimeout instead of leaking a
// pending-table entry forever.
func TestClientReadTimesOut(t *testing.T) {
	n, cl, ft := setup(t)
	ft.mute = true
	var readErr error
	done := false
	cl.Read(ft.node.Addr(), 0xad1cbe01, 200*time.Millisecond, func(v []int32, err error) {
		done = true
		readErr = err
	})
	n.RunUntilIdle(0)
	if !done {
		t.Fatal("read callback must fire on expiry")
	}
	if !errors.Is(readErr, ErrTimeout) {
		t.Fatalf("error = %v, want ErrTimeout", readErr)
	}
	// ErrTimeout doubles as a context deadline error.
	if !errors.Is(readErr, context.DeadlineExceeded) {
		t.Fatal("ErrTimeout must match context.DeadlineExceeded")
	}
	// The pending table must be empty again — no leak.
	cl.mu.Lock()
	pending := len(cl.pending)
	cl.mu.Unlock()
	if pending != 0 {
		t.Fatalf("pending entries after expiry = %d", pending)
	}
}

func TestClientReadUnreachableThing(t *testing.T) {
	n, cl, _ := setup(t)
	var readErr error
	cl.Read(addr("2001:db8::dead"), 0xad1cbe01, 100*time.Millisecond, func(_ []int32, err error) {
		readErr = err
	})
	n.RunUntilIdle(0)
	if !errors.Is(readErr, ErrTimeout) {
		t.Fatalf("error = %v, want ErrTimeout", readErr)
	}
}

func TestClientWriteTimesOut(t *testing.T) {
	n, cl, ft := setup(t)
	ft.mute = true
	var writeErr error
	cl.Write(ft.node.Addr(), 0xad1cbe01, []int32{1}, 150*time.Millisecond, func(err error) {
		writeErr = err
	})
	n.RunUntilIdle(0)
	if !errors.Is(writeErr, ErrTimeout) {
		t.Fatalf("error = %v, want ErrTimeout", writeErr)
	}
	cl.mu.Lock()
	pending := len(cl.pending)
	cl.mu.Unlock()
	if pending != 0 {
		t.Fatalf("pending entries after expiry = %d", pending)
	}
}

func TestClientEmptyDataMeansNoPeripheral(t *testing.T) {
	n, cl, ft := setup(t)
	var readErr error
	cl.Read(ft.node.Addr(), 0x42, 0, func(_ []int32, err error) { readErr = err })
	// The Thing answers with an empty data reply (absent peripheral).
	ft.send(cl.Addr(), &proto.Message{Type: proto.MsgData, Seq: 1, DeviceID: 0x42})
	n.RunUntilIdle(0)
	if !errors.Is(readErr, ErrNoPeripheral) {
		t.Fatalf("error = %v, want ErrNoPeripheral", readErr)
	}
}

func TestClientStream(t *testing.T) {
	n, cl, ft := setup(t)
	var got []int32
	closed := false
	established := false
	s := cl.Subscribe(ft.node.Addr(), 0xad1cbe01, SubscribeOptions{
		OnData:        func(v []int32) { got = append(got, v...) },
		OnClosed:      func() { closed = true },
		OnEstablished: func(err error) { established = err == nil },
	})
	n.RunUntilIdle(0)

	if !established {
		t.Fatal("stream must establish")
	}
	if len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("stream data = %v", got)
	}
	if !closed || !s.Closed() {
		t.Fatal("closed callback must fire")
	}
	// After close, the client must have left the group.
	group := netsim.MulticastAddr(netsim.PrefixFromAddr(ft.node.Addr()), 0xad1cbe01)
	if cl.Node().InGroup(group) {
		t.Fatal("client must leave the stream group after close")
	}
}

func TestClientStreamEstablishTimesOut(t *testing.T) {
	n, cl, ft := setup(t)
	ft.mute = true
	var estErr error
	cl.Subscribe(ft.node.Addr(), 0xad1cbe01, SubscribeOptions{
		Timeout:       100 * time.Millisecond,
		OnEstablished: func(err error) { estErr = err },
	})
	n.RunUntilIdle(0)
	if !errors.Is(estErr, ErrTimeout) {
		t.Fatalf("establishment error = %v, want ErrTimeout", estErr)
	}
}

func TestClientStreamCloseHandle(t *testing.T) {
	n, cl, ft := setup(t)
	var got int
	s := cl.Subscribe(ft.node.Addr(), 0xad1cbe01, SubscribeOptions{
		OnData: func([]int32) { got++ },
	})
	// Run until the two data messages arrived (sent 200/400 ms after the
	// stream request lands, plus multicast transit), then close the handle.
	n.RunUntil(600 * time.Millisecond)
	s.Close()
	// Further group data must not reach the handler.
	group := netsim.MulticastAddr(netsim.PrefixFromAddr(ft.node.Addr()), 0xad1cbe01)
	ft.send(group, &proto.Message{Type: proto.MsgData, Seq: 9, DeviceID: 0xad1cbe01, Data: proto.Values32([]int32{3})})
	n.RunUntilIdle(0)
	if got != 2 {
		t.Fatalf("stream callbacks = %d, want the 2 pre-close ones", got)
	}
	if cl.Node().InGroup(group) {
		t.Fatal("client must leave the group when the last handle closes")
	}
}

func TestClientTwoStreamsShareGroup(t *testing.T) {
	n, cl, ft := setup(t)
	var a, b int
	s1 := cl.Subscribe(ft.node.Addr(), 0xad1cbe01, SubscribeOptions{OnData: func([]int32) { a++ }})
	s2 := cl.Subscribe(ft.node.Addr(), 0xad1cbe01, SubscribeOptions{OnData: func([]int32) { b++ }})
	n.RunUntil(600 * time.Millisecond)
	// The scripted thing emits one data pair per stream request; both
	// handles must see every group datagram.
	if a < 2 || a != b {
		t.Fatalf("deliveries a=%d b=%d, want both handles fed equally", a, b)
	}
	// Closing one handle must keep the group joined for the other.
	s1.Close()
	group := netsim.MulticastAddr(netsim.PrefixFromAddr(ft.node.Addr()), 0xad1cbe01)
	if !cl.Node().InGroup(group) {
		t.Fatal("group must stay joined while another handle is live")
	}
	s2.Close()
	if cl.Node().InGroup(group) {
		t.Fatal("group must be left when the last handle closes")
	}
}

// TestClientTwoSubscribersClosedOnce: two clients subscribe to one
// peripheral's stream; both get the group data and each gets exactly one
// OnClosed, although the scripted Thing multicasts a close per stream
// request, so each client hears the close twice.
func TestClientTwoSubscribersClosedOnce(t *testing.T) {
	n, c1, ft := setup(t)
	c2, err := New(Config{Network: n, Addr: addr("2001:db8::5"), Parent: ft.node})
	if err != nil {
		t.Fatal(err)
	}
	var got1, got2, closed1, closed2 int
	c1.Subscribe(ft.node.Addr(), 0xad1cbe01, SubscribeOptions{
		OnData: func([]int32) { got1++ }, OnClosed: func() { closed1++ },
	})
	c2.Subscribe(ft.node.Addr(), 0xad1cbe01, SubscribeOptions{
		OnData: func([]int32) { got2++ }, OnClosed: func() { closed2++ },
	})
	n.RunUntilIdle(0)
	if got1 < 2 || got2 < 2 {
		t.Fatalf("stream data: c1=%d c2=%d, want >= 2 each", got1, got2)
	}
	if closed1 != 1 || closed2 != 1 {
		t.Fatalf("closed: c1=%d c2=%d, want exactly 1 each", closed1, closed2)
	}
}

// TestClientStreamDataCannotCompleteRead: stream data is multicast on a
// shared group with a sequence number chosen thing-side (by the last
// subscriber, possibly another client), so a colliding number must never
// complete this client's pending unicast read.
func TestClientStreamDataCannotCompleteRead(t *testing.T) {
	n, cl, ft := setup(t)
	// Subscribe (seq 1) so the client is in the group; the scripted data
	// messages echo the subscribe seq, as a real Thing does.
	var streamed int
	cl.Subscribe(ft.node.Addr(), 0xad1cbe01, SubscribeOptions{OnData: func([]int32) { streamed++ }})
	n.RunUntil(150 * time.Millisecond) // established

	// Issue a read (seq 2) the Thing never answers, then inject group data
	// carrying that exact seq — the collision scenario.
	ft.mute = true
	var vals []int32
	var readErr error
	cl.Read(ft.node.Addr(), 0xad1cbe01, 300*time.Millisecond, func(v []int32, err error) {
		vals, readErr = v, err
	})
	group := netsim.MulticastAddr(netsim.PrefixFromAddr(ft.node.Addr()), 0xad1cbe01)
	ft.send(group, &proto.Message{Type: proto.MsgData, Seq: 2, DeviceID: 0xad1cbe01,
		Data: proto.Values32([]int32{999})})
	n.RunUntilIdle(0)

	if vals != nil {
		t.Fatalf("multicast stream data completed the read with %v", vals)
	}
	if !errors.Is(readErr, ErrTimeout) {
		t.Fatalf("read error = %v, want ErrTimeout", readErr)
	}
	if streamed == 0 {
		t.Fatal("the data must still reach the stream handle")
	}
}

// TestClientStreamDataFiltersBySender: the group is shared per device
// type, so data from another Thing streaming the same type must not be
// delivered to (and misattributed by) this Thing's subscription.
func TestClientStreamDataFiltersBySender(t *testing.T) {
	n, cl, ft := setup(t)
	other := newFakeThing(t, n, ft.node, addr("2001:db8::4"), 0xad1cbe01)
	other.mute = true

	var streamed int
	cl.Subscribe(ft.node.Addr(), 0xad1cbe01, SubscribeOptions{OnData: func([]int32) { streamed++ }})
	n.RunUntil(150 * time.Millisecond) // established
	base := streamed

	group := netsim.MulticastAddr(netsim.PrefixFromAddr(ft.node.Addr()), 0xad1cbe01)
	other.send(group, &proto.Message{Type: proto.MsgData, Seq: 5, DeviceID: 0xad1cbe01,
		Data: proto.Values32([]int32{404})})
	n.RunUntil(250 * time.Millisecond)
	if streamed != base {
		t.Fatalf("another thing's stream data reached this subscription (%d)", streamed-base)
	}
	// The serving Thing's own data still flows.
	n.RunUntilIdle(0)
	if streamed <= base {
		t.Fatal("the serving thing's data must still be delivered")
	}
}

// TestClientStaleReplyCannotFeedStream is the reverse direction: a unicast
// data reply that matches no pending read (e.g. landing after its expiry)
// must be dropped, not delivered to stream handles as if it were group
// data.
func TestClientStaleReplyCannotFeedStream(t *testing.T) {
	n, cl, ft := setup(t)
	var streamed int
	cl.Subscribe(ft.node.Addr(), 0xad1cbe01, SubscribeOptions{OnData: func([]int32) { streamed++ }})
	n.RunUntil(150 * time.Millisecond) // established
	base := streamed

	// A unicast data message with an unknown seq for the subscribed type.
	ft.send(cl.Addr(), &proto.Message{Type: proto.MsgData, Seq: 999, DeviceID: 0xad1cbe01,
		Data: proto.Values32([]int32{777})})
	n.RunUntil(200 * time.Millisecond)
	if streamed != base {
		t.Fatalf("stale unicast reply reached the stream handle (%d deliveries)", streamed-base)
	}
}

// TestClientClosedFiltersBySender: several Things can stream the same
// peripheral type over the shared group; one Thing closing its stream must
// not tear down subscriptions served by the others.
func TestClientClosedFiltersBySender(t *testing.T) {
	n, cl, ft := setup(t)
	other := newFakeThing(t, n, ft.node, addr("2001:db8::4"), 0xad1cbe01)
	other.mute = true

	s := cl.Subscribe(ft.node.Addr(), 0xad1cbe01, SubscribeOptions{})
	n.RunUntil(150 * time.Millisecond) // established
	if !s.Established() {
		t.Fatal("setup: stream must establish")
	}

	// A close from an unrelated Thing on the same group: no effect.
	group := netsim.MulticastAddr(netsim.PrefixFromAddr(ft.node.Addr()), 0xad1cbe01)
	other.send(group, &proto.Message{Type: proto.MsgClosed, Seq: 9, DeviceID: 0xad1cbe01})
	n.RunUntil(300 * time.Millisecond)
	if s.Closed() {
		t.Fatal("close from another thing must not affect this subscription")
	}

	// The serving Thing's scripted close (at ~650 ms) does close it.
	n.RunUntilIdle(0)
	if !s.Closed() {
		t.Fatal("close from the serving thing must close the subscription")
	}
}

func TestClientIgnoresGarbage(t *testing.T) {
	n, cl, ft := setup(t)
	ft.node.Send(cl.Addr(), []byte{0x00, 0x01})
	ft.node.Send(cl.Addr(), nil)
	n.RunUntilIdle(0)
	if len(cl.Adverts()) != 0 {
		t.Fatal("garbage must not produce adverts")
	}
}

func TestClientJoinsAllClientsGroup(t *testing.T) {
	_, cl, _ := setup(t)
	if !cl.Node().InGroup(netsim.AllClientsAddr(netsim.PrefixFromAddr(cl.Addr()))) {
		t.Fatal("clients must join the all-clients group by default")
	}
}

func TestClientDataWithBadLengthIsError(t *testing.T) {
	n, cl, ft := setup(t)
	var readErr error
	var vals []int32
	cl.Read(ft.node.Addr(), 0x42, 0, func(v []int32, err error) { vals, readErr = v, err })
	// Deliver a data reply whose payload is not a multiple of 4.
	ft.send(cl.Addr(), &proto.Message{Type: proto.MsgData, Seq: 1, DeviceID: 0x42, Data: []byte{1, 2, 3}})
	n.RunUntilIdle(0)
	if readErr == nil || vals != nil {
		t.Fatalf("mis-sized data must surface a decode error, got vals=%v err=%v", vals, readErr)
	}
	if errors.Is(readErr, ErrTimeout) {
		t.Fatal("decode failure must not masquerade as a timeout")
	}
}

// TestClientSeqSkipsBusyEntries covers the 2^16 wrap hazard: sequence
// allocation must never hand out a number still bound to an in-flight
// request.
func TestClientSeqSkipsBusyEntries(t *testing.T) {
	_, cl, ft := setup(t)
	cl.mu.Lock()
	cl.seq = 0xFFFE
	cl.mu.Unlock()
	// Occupy 0xFFFF so the wrap must skip it (and the reserved 0).
	cl.Read(ft.node.Addr(), 0xad1cbe01, time.Hour, func([]int32, error) {})
	cl.mu.Lock()
	_, busy := cl.pending[0xFFFF]
	cl.mu.Unlock()
	if !busy {
		t.Fatal("setup: expected seq 0xFFFF to be pending")
	}
	cl.mu.Lock()
	next := cl.nextSeqLocked()
	cl.mu.Unlock()
	if next == 0 || next == 0xFFFF {
		t.Fatalf("nextSeq = %#x, must skip 0 and busy entries", next)
	}
}
