package thing

import (
	"bytes"
	"math/rand"
	"net/netip"
	"testing"
	"time"

	"micropnp/internal/bus"
	"micropnp/internal/bytecode"
	"micropnp/internal/driver"
	"micropnp/internal/hw"
	"micropnp/internal/netsim"
	"micropnp/internal/proto"
	"micropnp/internal/vm"
)

func addr(s string) netip.Addr { return netip.MustParseAddr(s) }

// testBed wires a Thing to a bare network with a scripted "manager" node so
// the package can be tested without the manager package.
type testBed struct {
	net   *netsim.Network
	thing *Thing
	mgr   *netsim.Node
	// mgrInbox collects decoded messages the manager node received.
	mgrInbox []*proto.Message
}

func newTestBed(t testing.TB) *testBed {
	t.Helper()
	n := netsim.New(netsim.Config{})
	root, err := n.AddNode(addr("2001:db8::1"), nil)
	if err != nil {
		t.Fatal(err)
	}
	tb := &testBed{net: n, mgr: root}
	root.Bind(func(m netsim.Message) {
		pm, err := proto.Decode(m.Payload)
		if err != nil {
			t.Errorf("manager received undecodable message: %v", err)
			return
		}
		tb.mgrInbox = append(tb.mgrInbox, pm)
	})
	th, err := New(Config{
		Network: n,
		Addr:    addr("2001:db8::2"),
		Parent:  root,
		Manager: root.Addr(),
		Name:    "bed",
	})
	if err != nil {
		t.Fatal(err)
	}
	tb.thing = th
	return tb
}

func tmp36Source(t testing.TB) []byte {
	t.Helper()
	repo, err := driver.StandardRepository()
	if err != nil {
		t.Fatal(err)
	}
	e, ok := repo.Lookup(driver.IDTMP36)
	if !ok {
		t.Fatal("TMP36 driver missing")
	}
	return e.Bytecode
}

type adcDevice struct{ env *bus.Environment }

func (d *adcDevice) Attach(ic *Interconnects) error {
	ic.ADC.Connect(&bus.TMP36{Env: d.env})
	return nil
}
func (d *adcDevice) Detach(ic *Interconnects) { ic.ADC.Connect(nil) }

func plugTMP36(t testing.TB, tb *testBed, ch int) {
	t.Helper()
	p, err := hw.NewPeripheral(hw.PeripheralSpec{ID: driver.IDTMP36, Bus: hw.BusADC})
	if err != nil {
		t.Fatal(err)
	}
	env := bus.NewEnvironment()
	if err := tb.thing.Plug(ch, p, &adcDevice{env: env}); err != nil {
		t.Fatal(err)
	}
}

func TestThingRequestsDriverFromManager(t *testing.T) {
	tb := newTestBed(t)
	plugTMP36(t, tb, 0)
	tb.net.RunUntilIdle(0)

	// The scripted manager never replies, so the Thing retransmits its
	// install request up to the retry bound.
	if len(tb.mgrInbox) != MaxDriverRequests {
		t.Fatalf("manager received %d messages, want %d install requests", len(tb.mgrInbox), MaxDriverRequests)
	}
	for _, req := range tb.mgrInbox {
		if req.Type != proto.MsgDriverInstallReq || req.DeviceID != driver.IDTMP36 {
			t.Fatalf("request = %+v", req)
		}
	}
	// No driver was served: the trace must remain unfinished.
	if tr := tb.thing.Traces()[0]; tr.Done {
		t.Fatal("trace must not complete without a driver upload")
	}
}

func TestThingPreinstalledDriverSkipsManager(t *testing.T) {
	tb := newTestBed(t)
	if err := tb.thing.InstallDriver(driver.IDTMP36, tmp36Source(t)); err != nil {
		t.Fatal(err)
	}
	plugTMP36(t, tb, 0)
	tb.net.RunUntilIdle(0)

	for _, m := range tb.mgrInbox {
		if m.Type == proto.MsgDriverInstallReq {
			t.Fatal("thing must not request a locally installed driver")
		}
	}
	tr := tb.thing.Traces()[0]
	if !tr.Done {
		t.Fatal("plug-in must complete")
	}
	if tr.RequestDriver != 0 {
		t.Errorf("request phase = %v, want 0 for local driver", tr.RequestDriver)
	}
	if tb.thing.Runtime(driver.IDTMP36) == nil {
		t.Fatal("driver must be active")
	}
	// Thing must have joined the peripheral's group.
	group := netsim.MulticastAddr(netsim.PrefixFromAddr(tb.thing.Addr()), driver.IDTMP36)
	if !tb.thing.Node().InGroup(group) {
		t.Fatal("thing must join the peripheral's multicast group")
	}
}

func TestThingInstallDriverValidation(t *testing.T) {
	tb := newTestBed(t)
	if err := tb.thing.InstallDriver(driver.IDTMP36, []byte("junk")); err == nil {
		t.Fatal("junk driver must be rejected")
	}
	if err := tb.thing.InstallDriver(0x9999, tmp36Source(t)); err == nil {
		t.Fatal("ID mismatch must be rejected")
	}
	if got := tb.thing.InstalledDrivers(); len(got) != 0 {
		t.Fatalf("installed = %v", got)
	}
}

func TestThingMalformedUploadIgnored(t *testing.T) {
	tb := newTestBed(t)
	plugTMP36(t, tb, 0)
	tb.net.RunUntilIdle(0)

	// Upload garbage bytecode: the thing must not activate it.
	up := &proto.Message{Type: proto.MsgDriverUpload, Seq: 1, DeviceID: driver.IDTMP36, Driver: []byte{0xde, 0xad}}
	payload, err := up.Encode()
	if err != nil {
		t.Fatal(err)
	}
	tb.mgr.Send(tb.thing.Addr(), payload)
	tb.net.RunUntilIdle(0)

	if tb.thing.Runtime(driver.IDTMP36) != nil {
		t.Fatal("garbage driver must not activate")
	}
}

func TestThingMalformedDatagramsIgnored(t *testing.T) {
	tb := newTestBed(t)
	plugTMP36(t, tb, 0)
	tb.net.RunUntilIdle(0)
	before := len(tb.mgrInbox)

	tb.mgr.Send(tb.thing.Addr(), []byte{0xff, 0x00})
	tb.mgr.Send(tb.thing.Addr(), nil)
	tb.net.RunUntilIdle(0)
	if len(tb.mgrInbox) != before {
		t.Fatal("malformed datagrams must not trigger replies")
	}
}

func TestThingChannelErrors(t *testing.T) {
	tb := newTestBed(t)
	p, _ := hw.NewPeripheral(hw.PeripheralSpec{ID: driver.IDTMP36, Bus: hw.BusADC})
	if err := tb.thing.Plug(99, p, nil); err == nil {
		t.Fatal("out-of-range channel must fail")
	}
	if err := tb.thing.Unplug(0); err == nil {
		t.Fatal("unplugging an empty channel must fail")
	}
}

func TestThingDriverDiscoveryAndRemoval(t *testing.T) {
	tb := newTestBed(t)
	if err := tb.thing.InstallDriver(driver.IDTMP36, tmp36Source(t)); err != nil {
		t.Fatal(err)
	}
	plugTMP36(t, tb, 0)
	tb.net.RunUntilIdle(0)

	// Discovery.
	disc := &proto.Message{Type: proto.MsgDriverDiscovery, Seq: 7}
	payload, _ := disc.Encode()
	tb.mgr.Send(tb.thing.Addr(), payload)
	tb.net.RunUntilIdle(0)
	var advert *proto.Message
	for _, m := range tb.mgrInbox {
		if m.Type == proto.MsgDriverAdvert {
			advert = m
		}
	}
	if advert == nil || advert.Seq != 7 || len(advert.Drivers) != 1 || advert.Drivers[0] != driver.IDTMP36 {
		t.Fatalf("driver advert = %+v", advert)
	}

	// Removal while in use: the runtime stops.
	rm := &proto.Message{Type: proto.MsgDriverRemovalReq, Seq: 8, DeviceID: driver.IDTMP36}
	payload, _ = rm.Encode()
	tb.mgr.Send(tb.thing.Addr(), payload)
	tb.net.RunUntilIdle(0)
	var ack *proto.Message
	for _, m := range tb.mgrInbox {
		if m.Type == proto.MsgDriverRemovalAck && m.Seq == 8 {
			ack = m
		}
	}
	if ack == nil || ack.Status != 0 {
		t.Fatalf("removal ack = %+v", ack)
	}
	if tb.thing.Runtime(driver.IDTMP36) != nil {
		t.Fatal("runtime must stop on removal")
	}
}

func TestPluginTraceFinish(t *testing.T) {
	tr := &PluginTrace{
		Identification: 250 * time.Millisecond,
		GenerateAddr:   CostGenerateAddr,
		JoinGroup:      CostJoinGroup,
		RequestDriver:  50 * time.Millisecond,
		InstallDriver:  60 * time.Millisecond,
		Advertise:      45 * time.Millisecond,
	}
	tr.finish()
	if !tr.Done {
		t.Fatal("finish must mark done")
	}
	wantNet := CostGenerateAddr + CostJoinGroup + 155*time.Millisecond
	if tr.NetworkTotal != wantNet {
		t.Fatalf("network total = %v, want %v", tr.NetworkTotal, wantNet)
	}
	if tr.Total != tr.NetworkTotal+250*time.Millisecond {
		t.Fatalf("total = %v", tr.Total)
	}
}

func TestInterconnectsComplete(t *testing.T) {
	ic := NewInterconnects()
	if ic.UART == nil || ic.ADC == nil || ic.I2C == nil || ic.SPI == nil {
		t.Fatal("all four interconnects must exist per channel")
	}
}

func TestThingIdentificationFailureNoSetup(t *testing.T) {
	// A peripheral with hopelessly sloppy resistors whose identification
	// fails: the thing must not start the network sequence for it.
	n := netsim.New(netsim.Config{})
	root, _ := n.AddNode(addr("2001:db8::1"), nil)
	var mgrGot int
	root.Bind(func(netsim.Message) { mgrGot++ })
	th, err := New(Config{Network: n, Addr: addr("2001:db8::2"), Parent: root, Manager: root.Addr()})
	if err != nil {
		t.Fatal(err)
	}

	// Manufacture a peripheral whose resistors decode wrongly on this
	// thing's board (±20% parts virtually guarantee it; search seeds for a
	// deterministic failing one).
	for seed := int64(1); seed < 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		p, errP := hw.NewPeripheral(hw.PeripheralSpec{
			ID: driver.IDTMP36, Bus: hw.BusADC, Tolerance: 0.20, Rng: rng,
		})
		if errP != nil {
			t.Fatal(errP)
		}
		probe := hw.NewControlBoard(hw.BoardConfig{Channels: 1})
		_ = probe.Plug(0, p)
		rd := probe.Identify().Readings[0]
		if rd.Err == nil {
			continue // this one happens to decode; try another
		}
		if err := th.Plug(0, p, nil); err != nil {
			t.Fatal(err)
		}
		n.RunUntilIdle(0)
		if len(th.Traces()) != 0 {
			t.Fatal("failed identification must not produce a trace")
		}
		if mgrGot != 0 {
			t.Fatal("failed identification must not contact the manager")
		}
		return
	}
	t.Fatal("could not manufacture a failing peripheral in 200 tries")
}

// TestThingHandlesOnlyServedTypes passes a message of every type handle's
// switch serves through the pre-decode check and on to the Thing, which must
// answer each; every other type fails the check. A peer's stream tick on the
// Thing's peripheral group reaches the Thing and makes it send nothing.
func TestThingHandlesOnlyServedTypes(t *testing.T) {
	tb := newTestBed(t)
	plugTMP36(t, tb, 0) // no local driver: the upload below installs it
	tb.net.RunUntilIdle(0)
	sent := func() int { s := tb.net.Stats(); return s.UnicastSent + s.MulticastSent }
	// deliver sends m and returns how many datagrams the Thing sent in the
	// next virtual second (under the stream period, so no stream tick of
	// its own fires).
	deliver := func(src *netsim.Node, dst netip.Addr, m *proto.Message) (payload []byte, replies int) {
		t.Helper()
		payload, err := m.Encode()
		if err != nil {
			t.Fatal(err)
		}
		before := sent()
		src.Send(dst, payload)
		tb.net.RunUntil(tb.net.Now() + time.Second)
		return payload, sent() - before - 1
	}
	served := map[proto.MsgType]bool{}
	serve := func(m *proto.Message) {
		t.Helper()
		payload, replies := deliver(tb.mgr, tb.thing.Addr(), m)
		if !handles(payload) {
			t.Fatalf("%v fails the pre-decode check", m.Type)
		}
		if replies == 0 {
			t.Fatalf("%v reached the Thing but it sent nothing", m.Type)
		}
		served[m.Type] = true
	}

	serve(&proto.Message{Type: proto.MsgDriverUpload, Seq: 1, DeviceID: driver.IDTMP36, Driver: tmp36Source(t)})
	serve(&proto.Message{Type: proto.MsgDiscovery, Seq: 2})
	serve(&proto.Message{Type: proto.MsgDriverDiscovery, Seq: 3})
	serve(&proto.Message{Type: proto.MsgRead, Seq: 4, DeviceID: driver.IDTMP36})
	serve(&proto.Message{Type: proto.MsgStream, Seq: 5, DeviceID: driver.IDTMP36})
	serve(&proto.Message{Type: proto.MsgWrite, Seq: 6, DeviceID: driver.IDTMP36})

	// A peer's stream tick, multicast to the TMP36 group the Thing joined
	// when its driver activated.
	group := netsim.MulticastAddr(netsim.PrefixFromAddr(tb.thing.Addr()), driver.IDTMP36)
	if !tb.thing.Node().InGroup(group) {
		t.Fatal("the Thing must be in its peripheral's group")
	}
	peer, err := tb.net.AddNode(addr("2001:db8::3"), tb.mgr)
	if err != nil {
		t.Fatal(err)
	}
	delivered := tb.net.Stats().Delivered
	tick := &proto.Message{Type: proto.MsgData, Seq: 9, DeviceID: driver.IDTMP36, Data: proto.AppendValues32(nil, []int32{215})}
	if payload, replies := deliver(peer, group, tick); handles(payload) || replies != 0 {
		t.Fatalf("a peer's stream tick passed the check (%v) or made the Thing send %d datagram(s)", handles(payload), replies)
	}
	if got := tb.net.Stats().Delivered - delivered; got != 1 {
		t.Fatalf("the stream tick reached %d receivers, want the Thing", got)
	}

	serve(&proto.Message{Type: proto.MsgDriverRemovalReq, Seq: 7, DeviceID: driver.IDTMP36})
	for b := 0; b < 256; b++ {
		if got := handles([]byte{byte(b), 0, 0}); got != served[proto.MsgType(b)] {
			t.Errorf("handles(type %d) = %v, want %v", b, got, served[proto.MsgType(b)])
		}
	}
	if handles(nil) {
		t.Error("an empty datagram passes the pre-decode check")
	}
}

// TestThingCorruptUploadNotInstalled uploads driver bytes that do not
// decode, and bytes that decode but fail verification, while the Thing
// awaits its driver. Neither activates nor is listed by driver discovery,
// the Thing keeps re-requesting as if the uploads were lost, and a valid
// upload afterwards installs normally.
func TestThingCorruptUploadNotInstalled(t *testing.T) {
	prog, err := bytecode.Decode(tmp36Source(t))
	if err != nil {
		t.Fatal(err)
	}
	var kept []bytecode.Handler
	for _, h := range prog.Handlers {
		if h.Name != "destroy" {
			kept = append(kept, h)
		}
	}
	prog.Handlers = kept
	unverified, err := prog.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := bytecode.Decode(unverified); err != nil {
		t.Fatalf("the unverifiable driver must still decode: %v", err)
	}

	tb := newTestBed(t)
	upload := func(seq uint16, code []byte) {
		t.Helper()
		up := &proto.Message{Type: proto.MsgDriverUpload, Seq: seq, DeviceID: driver.IDTMP36, Driver: code}
		payload, err := up.Encode()
		if err != nil {
			t.Fatal(err)
		}
		tb.mgr.Send(tb.thing.Addr(), payload)
	}
	requests := func() (n int) {
		for _, m := range tb.mgrInbox {
			if m.Type == proto.MsgDriverInstallReq {
				n++
			}
		}
		return n
	}
	plugTMP36(t, tb, 0)
	for requests() == 0 {
		tb.net.RunUntil(tb.net.Now() + time.Millisecond)
	}
	upload(1, tmp36Source(t)[:20])
	upload(2, unverified)
	tb.net.RunUntilIdle(0)

	if tb.thing.Runtime(driver.IDTMP36) != nil {
		t.Fatal("a corrupt driver activated")
	}
	if got := tb.thing.InstalledDrivers(); len(got) != 0 {
		t.Fatalf("corrupt drivers installed: %v", got)
	}
	if got := requests(); got != MaxDriverRequests {
		t.Fatalf("%d install requests, want %d: a corrupt upload must not end the retries", got, MaxDriverRequests)
	}
	disc := &proto.Message{Type: proto.MsgDriverDiscovery, Seq: 7}
	payload, _ := disc.Encode()
	tb.mgr.Send(tb.thing.Addr(), payload)
	tb.net.RunUntilIdle(0)
	var advert *proto.Message
	for _, m := range tb.mgrInbox {
		if m.Type == proto.MsgDriverAdvert {
			advert = m
		}
	}
	if advert == nil || len(advert.Drivers) != 0 {
		t.Fatalf("driver advert after corrupt uploads = %+v, want no drivers", advert)
	}

	upload(3, tmp36Source(t))
	tb.net.RunUntilIdle(0)
	if tb.thing.Runtime(driver.IDTMP36) == nil {
		t.Fatal("a valid upload after corrupt ones did not activate")
	}
}

// TestThingsShareImagesNotBytes gives two Things one image table: their
// runtimes share the TMP36 image, and InstalledDriverBytes still hands each
// caller a private copy.
func TestThingsShareImagesNotBytes(t *testing.T) {
	n := netsim.New(netsim.Config{})
	root, err := n.AddNode(addr("2001:db8::1"), nil)
	if err != nil {
		t.Fatal(err)
	}
	images := vm.NewImages()
	var things []*Thing
	for _, a := range []string{"2001:db8::2", "2001:db8::3"} {
		th, err := New(Config{Network: n, Addr: addr(a), Parent: root, Manager: root.Addr(), Images: images})
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
		things = append(things, th)
	}
	n.RunUntilIdle(0)

	a, b := things[0].Runtime(driver.IDTMP36), things[1].Runtime(driver.IDTMP36)
	if a == nil || b == nil {
		t.Fatal("driver not active")
	}
	if a.Machine().Image() != b.Machine().Image() || images.Len() != 1 {
		t.Fatalf("Things of one table do not share the driver image (%d images)", images.Len())
	}
	want := tmp36Source(t)
	mine := things[0].InstalledDriverBytes(driver.IDTMP36)
	for i := range mine {
		mine[i] = 0
	}
	for i, th := range things {
		if got := th.InstalledDriverBytes(driver.IDTMP36); !bytes.Equal(got, want) {
			t.Fatalf("thing %d: installed bytes changed after another caller mutated its copy", i)
		}
	}
}
