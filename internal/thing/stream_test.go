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

// streamBed is a Thing serving a TMP36 with a 1 s stream period, and a
// subscriber node that joins and leaves the stream's group only when a test
// says so, so a test controls the group's membership at every tick.
type streamBed struct {
	*testBed
	sub   *netsim.Node
	group netip.Addr
	// data lists the arrival times of the stream data the subscriber heard.
	data []time.Duration
}

func newStreamBed(t *testing.T) *streamBed {
	t.Helper()
	tb := newTestBed(t)
	tb.thing.cfg.StreamPeriod = time.Second
	if err := tb.thing.InstallDriver(driver.IDTMP36, tmp36Source(t)); err != nil {
		t.Fatal(err)
	}
	plugTMP36(t, tb, 0)
	tb.net.RunUntilIdle(0)
	sub, err := tb.net.AddNode(addr("2001:db8::20"), tb.mgr)
	if err != nil {
		t.Fatal(err)
	}
	sb := &streamBed{testBed: tb, sub: sub, group: netsim.StreamGroup(tb.thing.Addr(), 0)}
	sub.Bind(func(m netsim.Message) {
		if m.Dst == sb.group && len(m.Payload) > 0 && proto.MsgType(m.Payload[0]) == proto.MsgData {
			sb.data = append(sb.data, tb.net.Now())
		}
	})
	return sb
}

// request sends a stream request for the TMP36 from the subscriber node.
func (sb *streamBed) request(t *testing.T, seq uint16) {
	t.Helper()
	b, err := (&proto.Message{Type: proto.MsgStream, Seq: seq, DeviceID: driver.IDTMP36}).Encode()
	if err != nil {
		t.Fatal(err)
	}
	sb.sub.Send(sb.thing.Addr(), b)
}

// runFor advances the network by d and returns the stream data the
// subscriber heard meanwhile.
func (sb *streamBed) runFor(d time.Duration) int {
	before := len(sb.data)
	sb.net.RunUntil(sb.net.Now() + d)
	return len(sb.data) - before
}

// open reports whether the Thing's TMP36 stream is in its stream table.
func (sb *streamBed) open() bool {
	sb.thing.mu.Lock()
	defer sb.thing.mu.Unlock()
	_, ok := sb.thing.streams[driver.IDTMP36]
	return ok
}

// TestReopenedStreamRunsOneTickChain: a stream closed and re-opened within
// one period runs one tick chain, not the old one beside a new one. The
// subscriber stays in the group throughout, so every tick reaches it.
func TestReopenedStreamRunsOneTickChain(t *testing.T) {
	sb := newStreamBed(t)
	sb.sub.JoinGroup(sb.group)
	sb.request(t, 7)
	if got := sb.runFor(2500 * time.Millisecond); got != 2 {
		t.Fatalf("heard %d data in the first 2.5 s, want 2", got)
	}
	sb.thing.StopStream(driver.IDTMP36)
	sb.request(t, 8)
	// Ticks at 1 s … 10 s after the re-opening, each heard a few ms later.
	if got := sb.runFor(10500 * time.Millisecond); got != 10 {
		t.Fatalf("heard %d data in the 10.5 s after re-opening at a 1 s period, want 10 (one tick chain)", got)
	}
}

// TestStreamTickNeedsAMemberAfterItsGraceTick: the first tick after a stream
// request runs whatever the group's membership, so a subscriber that joins
// late keeps its stream; a later tick that finds the group empty ends the
// stream, and nothing more is sent for it.
func TestStreamTickNeedsAMemberAfterItsGraceTick(t *testing.T) {
	sb := newStreamBed(t)
	sb.request(t, 7)
	// The grace tick at 1 s runs with no member; the subscriber joins after it.
	sb.runFor(1500 * time.Millisecond)
	sb.sub.JoinGroup(sb.group)
	if got := sb.runFor(3 * time.Second); got != 3 {
		t.Fatalf("a subscriber that joined after the grace tick heard %d data in 3 s, want 3", got)
	}

	// Leave, then re-subscribe just before a tick and join after it: the
	// request's grace tick keeps the stream for the late join.
	sb.sub.LeaveGroup(sb.group)
	sb.runFor(400 * time.Millisecond)
	sb.request(t, 8)
	sb.runFor(200 * time.Millisecond)
	sb.sub.JoinGroup(sb.group)
	if got := sb.runFor(3500 * time.Millisecond); got != 3 {
		t.Fatalf("a re-subscriber that joined after a tick heard %d data in 3.5 s, want 3", got)
	}

	// The last member leaves: the next tick ends the stream.
	sb.sub.LeaveGroup(sb.group)
	sb.runFor(time.Second)
	if sb.open() {
		t.Fatal("the stream is still open a period after its group emptied")
	}
	sent := sb.net.Stats().MulticastSent
	if !sb.net.RunUntilQuiesced(sb.net.Now() + time.Minute) {
		t.Fatal("the network never went idle after the stream ended")
	}
	if got := sb.net.Stats().MulticastSent; got != sent {
		t.Fatalf("%d multicasts after the stream ended, want none", got-sent)
	}
}

// TestUnheardStreamEnds: a stream whose requester never joins its group —
// its MsgEstablished was lost, so the client's subscription timed out —
// runs its grace tick once and ends at the next one, instead of ticking
// forever.
func TestUnheardStreamEnds(t *testing.T) {
	sb := newStreamBed(t)
	sent := sb.net.Stats().MulticastSent
	sb.request(t, 7)
	if !sb.net.RunUntilQuiesced(sb.net.Now() + time.Minute) {
		t.Fatal("a stream nobody joined kept the network busy for a minute")
	}
	if sb.open() {
		t.Fatal("a stream nobody joined is still open")
	}
	if got := sb.net.Stats().MulticastSent - sent; got != 1 {
		t.Fatalf("%d multicasts for a stream nobody joined, want 1 (the grace tick)", got)
	}
}
