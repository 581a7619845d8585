package thing

import (
	"math/rand"
	"net/netip"
	"testing"
	"time"

	"micropnp/internal/bus"
	"micropnp/internal/driver"
	"micropnp/internal/hw"
	"micropnp/internal/netsim"
	"micropnp/internal/proto"
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
	root.Bind(netsim.Port6030, func(m netsim.Message) {
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
	tb.mgr.Send(tb.thing.Addr(), netsim.Port6030, payload)
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

	tb.mgr.Send(tb.thing.Addr(), netsim.Port6030, []byte{0xff, 0x00})
	tb.mgr.Send(tb.thing.Addr(), netsim.Port6030, nil)
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
	tb.mgr.Send(tb.thing.Addr(), netsim.Port6030, payload)
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
	tb.mgr.Send(tb.thing.Addr(), netsim.Port6030, payload)
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
	root.Bind(netsim.Port6030, func(netsim.Message) { mgrGot++ })
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
