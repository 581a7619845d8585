package thing

import (
	"fmt"
	"net/netip"
	"testing"
	"time"

	"micropnp/internal/bus"
	"micropnp/internal/driver"
	"micropnp/internal/hw"
	"micropnp/internal/netsim"
	"micropnp/internal/proto"
)

// streamArrival is one stream datagram (data or close) a node received.
type streamArrival struct {
	typ proto.MsgType
	src netip.Addr
	dst netip.Addr
}

// TestStreamReachesOnlyItsSubscribers: two Things stream the same
// peripheral to one subscriber each, and a third Thing has the peripheral
// but no subscription. Every subscriber receives its own Thing's ticks and
// close (from StopStream, and from an unplug), on that Thing's stream group,
// and nothing else; no Thing receives any stream datagram.
func TestStreamReachesOnlyItsSubscribers(t *testing.T) {
	n := netsim.New(netsim.Config{})
	root, err := n.AddNode(addr("2001:db8::1"), nil)
	if err != nil {
		t.Fatal(err)
	}
	// heard lists the multicast stream datagrams each node received.
	heard := map[netip.Addr][]streamArrival{}
	record := func(at netip.Addr, m netsim.Message) {
		if !m.Dst.IsMulticast() || len(m.Payload) == 0 {
			return
		}
		if typ := proto.MsgType(m.Payload[0]); typ == proto.MsgData || typ == proto.MsgClosed {
			heard[at] = append(heard[at], streamArrival{typ, m.Src, m.Dst})
		}
	}
	var things []*Thing
	for i := 0; i < 3; i++ {
		th, err := New(Config{Network: n, Addr: addr(fmt.Sprintf("2001:db8::%x", 0x10+i)), Parent: root,
			Manager: root.Addr(), StreamPeriod: time.Second})
		if err != nil {
			t.Fatal(err)
		}
		if err := th.InstallDriver(driver.IDTMP36, tmp36Source(t)); err != nil {
			t.Fatal(err)
		}
		p, err := hw.NewPeripheral(hw.PeripheralSpec{ID: driver.IDTMP36, Bus: hw.BusADC})
		if err != nil {
			t.Fatal(err)
		}
		if err := th.Plug(0, p, &adcDevice{env: bus.NewEnvironment()}); err != nil {
			t.Fatal(err)
		}
		th.Node().Bind(func(m netsim.Message) {
			record(th.Addr(), m)
			th.handle(m)
		})
		things = append(things, th)
	}
	n.RunUntilIdle(0)

	// Subscriber i subscribes to Thing i and joins the group it is told.
	subs := make([]*netsim.Node, 2)
	for i := range subs {
		nd, err := n.AddNode(addr(fmt.Sprintf("2001:db8::%x", 0x20+i)), root)
		if err != nil {
			t.Fatal(err)
		}
		nd.Bind(func(m netsim.Message) {
			pm, err := proto.Decode(m.Payload)
			if err != nil {
				t.Errorf("subscriber received undecodable message: %v", err)
				return
			}
			if pm.Type == proto.MsgEstablished {
				nd.JoinGroup(netip.AddrFrom16(pm.Group))
			}
			record(nd.Addr(), m)
		})
		req, _ := (&proto.Message{Type: proto.MsgStream, Seq: uint16(7 + i), DeviceID: driver.IDTMP36}).Encode()
		nd.Send(things[i].Addr(), req)
		subs[i] = nd
	}
	// Thing 0 stops its stream; Thing 1's peripheral is unplugged.
	n.RunUntil(n.Now() + 5500*time.Millisecond)
	things[0].StopStream(driver.IDTMP36)
	if err := things[1].Unplug(0); err != nil {
		t.Fatal(err)
	}
	n.RunUntilIdle(0)

	for i, th := range things[:2] {
		group := netsim.StreamGroup(th.Addr(), 0)
		if !subs[i].InGroup(group) {
			t.Fatalf("subscriber %d did not join %v", i, group)
		}
		got := heard[subs[i].Addr()]
		if len(got) < 5 || got[len(got)-1].typ != proto.MsgClosed {
			t.Fatalf("subscriber %d heard %v, want its Thing's ticks and then its close", i, got)
		}
		for _, a := range got {
			if a.src != th.Addr() || a.dst != group {
				t.Fatalf("subscriber %d heard %v from %v on %v, want only its Thing %v on %v", i, a.typ, a.src, a.dst, th.Addr(), group)
			}
		}
		delete(heard, subs[i].Addr())
	}
	if len(heard) != 0 {
		t.Fatalf("stream datagrams reached nodes that did not subscribe to them: %v", heard)
	}
}

// TestDriverRemovalClosesStream: removing the driver of a streaming
// peripheral ends its stream like StopStream does. The subscriber hears one
// close on the stream group; once the driver is uploaded again, a new
// stream request is served with data again.
func TestDriverRemovalClosesStream(t *testing.T) {
	n := netsim.New(netsim.Config{})
	mgr, err := n.AddNode(addr("2001:db8::1"), nil)
	if err != nil {
		t.Fatal(err)
	}
	th, err := New(Config{Network: n, Addr: addr("2001:db8::10"), Parent: mgr,
		Manager: mgr.Addr(), StreamPeriod: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	code := tmp36Source(t)
	if err := th.InstallDriver(driver.IDTMP36, code); err != nil {
		t.Fatal(err)
	}
	p, err := hw.NewPeripheral(hw.PeripheralSpec{ID: driver.IDTMP36, Bus: hw.BusADC})
	if err != nil {
		t.Fatal(err)
	}
	if err := th.Plug(0, p, &adcDevice{env: bus.NewEnvironment()}); err != nil {
		t.Fatal(err)
	}
	n.RunUntilIdle(0)

	group := netsim.StreamGroup(th.Addr(), 0)
	sub, err := n.AddNode(addr("2001:db8::20"), mgr)
	if err != nil {
		t.Fatal(err)
	}
	// heard lists the stream datagrams the subscriber received, in order.
	var heard []proto.MsgType
	sub.Bind(func(m netsim.Message) {
		pm, err := proto.Decode(m.Payload)
		if err != nil {
			t.Errorf("subscriber received undecodable message: %v", err)
			return
		}
		switch {
		case pm.Type == proto.MsgEstablished:
			sub.JoinGroup(netip.AddrFrom16(pm.Group))
		case m.Dst == group && (pm.Type == proto.MsgData || pm.Type == proto.MsgClosed):
			heard = append(heard, pm.Type)
		}
	})
	send := func(from *netsim.Node, m *proto.Message) {
		b, err := m.Encode()
		if err != nil {
			t.Fatal(err)
		}
		from.Send(th.Addr(), b)
	}
	count := func(typ proto.MsgType, from int) int {
		k := 0
		for _, h := range heard[from:] {
			if h == typ {
				k++
			}
		}
		return k
	}

	send(sub, &proto.Message{Type: proto.MsgStream, Seq: 7, DeviceID: driver.IDTMP36})
	n.RunUntil(n.Now() + 3500*time.Millisecond)
	if count(proto.MsgData, 0) == 0 {
		t.Fatalf("heard %v before the removal, want stream data", heard)
	}
	send(mgr, &proto.Message{Type: proto.MsgDriverRemovalReq, Seq: 8, DeviceID: driver.IDTMP36})
	// Past the next tick: a stream the removal left open would stop there.
	n.RunUntil(n.Now() + 2*time.Second)
	if len(heard) == 0 || heard[len(heard)-1] != proto.MsgClosed || count(proto.MsgClosed, 0) != 1 {
		t.Fatalf("heard %v after the removal, want the data and then one close", heard)
	}

	send(mgr, &proto.Message{Type: proto.MsgDriverUpload, Seq: 9, DeviceID: driver.IDTMP36, Driver: code})
	n.RunUntil(n.Now() + time.Second)
	if th.Runtime(driver.IDTMP36) == nil {
		t.Fatal("the re-uploaded driver must run")
	}
	closedAt := len(heard)
	send(sub, &proto.Message{Type: proto.MsgStream, Seq: 10, DeviceID: driver.IDTMP36})
	n.RunUntil(n.Now() + 5*time.Second)
	if got := count(proto.MsgData, closedAt); got < 4 || count(proto.MsgClosed, closedAt) != 0 {
		t.Fatalf("heard %v after re-subscribing, want about one datum per second and no close", heard[closedAt:])
	}
}
