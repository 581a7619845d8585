package client

import (
	"net/netip"
	"testing"
	"time"

	"micropnp/internal/driver"
	"micropnp/internal/hw"
	"micropnp/internal/netsim"
	"micropnp/internal/proto"
	"micropnp/internal/thing"
)

// pendingBatch is the number of request round trips one benchmark op
// covers, so a -benchtime 1x run (the CI regression gate) measures a stable
// span instead of one sub-microsecond round trip.
const pendingBatch = 1_000

// BenchmarkClientPending measures the client's pending-table round trip
// with no network in between: ReadInto registers a pending read and arms
// its deadline (the request goes to an address with no node, so the network
// drops it without scheduling a delivery), then a data reply carrying the
// same sequence number is handed straight to the client's handler, which
// finds and removes the entry, cancels the deadline, parses the value into
// the scratch buffer, fires the callback and recycles the entry.
func BenchmarkClientPending(b *testing.B) {
	n := netsim.New(netsim.Config{})
	root, err := n.AddNode(addr("2001:db8::1"), nil)
	if err != nil {
		b.Fatal(err)
	}
	cl, err := New(Config{Network: n, Addr: addr("2001:db8::2"), Parent: root})
	if err != nil {
		b.Fatal(err)
	}
	thing := addr("2001:db8::3")
	reply := proto.Message{Type: proto.MsgData, DeviceID: 0xad1cbe01, Data: proto.Values32([]int32{238})}
	var (
		buf     []byte
		scratch = make([]int32, 0, 4)
		done    int
	)
	cb := func(vals []int32, err error) {
		if err == nil && len(vals) == 1 && vals[0] == 238 {
			done++
		}
		scratch = vals
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < pendingBatch; j++ {
			cl.ReadInto(thing, reply.DeviceID, scratch, time.Second, cb)
			reply.Seq = cl.seq
			buf, _ = reply.AppendEncode(buf[:0])
			cl.handle(netsim.Message{Src: thing, Dst: cl.Addr(), Payload: buf})
		}
	}
	b.StopTimer()
	if done != b.N*pendingBatch || cl.Pending() != 0 {
		b.Fatalf("completed %d of %d reads, %d still pending", done, b.N*pendingBatch, cl.Pending())
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*pendingBatch), "ns/read")
}

// thingAdvert plugs a TMP36, an HIH-4030 and a BMP180 into a Thing running
// the shipped drivers and units table, and returns the Thing's address and
// the solicited advertisement it answers a wildcard discovery with: three
// peripherals with name, bus kind, channel and units TLVs, as the Thing
// itself encodes them.
func thingAdvert(tb testing.TB) (netip.Addr, []byte) {
	tb.Helper()
	n := netsim.New(netsim.Config{})
	root, err := n.AddNode(addr("2001:db8::1"), nil)
	if err != nil {
		tb.Fatal(err)
	}
	th, err := thing.New(thing.Config{Network: n, Addr: addr("2001:db8::3"), Parent: root,
		Manager: root.Addr(), Name: "bench", Units: driver.UnitsTable()})
	if err != nil {
		tb.Fatal(err)
	}
	repo, err := driver.StandardRepository()
	if err != nil {
		tb.Fatal(err)
	}
	for ch, spec := range []hw.PeripheralSpec{
		{ID: driver.IDTMP36, Bus: hw.BusADC},
		{ID: driver.IDHIH4030, Bus: hw.BusADC},
		{ID: driver.IDBMP180, Bus: hw.BusI2C},
	} {
		e, ok := repo.Lookup(spec.ID)
		if !ok {
			tb.Fatalf("driver %v missing", spec.ID)
		}
		if err := th.InstallDriver(spec.ID, e.Bytecode); err != nil {
			tb.Fatal(err)
		}
		p, err := hw.NewPeripheral(spec)
		if err != nil {
			tb.Fatal(err)
		}
		if err := th.Plug(ch, p, nil); err != nil {
			tb.Fatal(err)
		}
	}
	n.RunUntilIdle(0)
	var advert []byte
	root.Bind(func(m netsim.Message) {
		if len(m.Payload) > 0 && proto.MsgType(m.Payload[0]) == proto.MsgSolicitedAdvert {
			advert = append([]byte(nil), m.Payload...)
		}
	})
	disc, err := (&proto.Message{Type: proto.MsgDiscovery, Seq: 1}).Encode()
	if err != nil {
		tb.Fatal(err)
	}
	root.Send(netsim.AllPeripheralsAddr(netsim.PrefixFromAddr(th.Addr())), disc)
	n.RunUntilIdle(0)
	if m, err := proto.Decode(advert); err != nil || len(m.Peripherals) != 3 {
		tb.Fatalf("the Thing's discovery reply = %+v, %v; want three peripherals", m, err)
	}
	return th.Addr(), advert
}

// ingestBed is a client with one advert hook and one wildcard discovery
// pending, and a Thing-encoded three-peripheral advert answering that
// discovery. The advert was ingested once, so the view already holds its
// entries.
type ingestBed struct {
	cl     *Client
	msg    netsim.Message
	pd     *pending
	hooked int
}

func newIngestBed(tb testing.TB) *ingestBed {
	tb.Helper()
	src, advert := thingAdvert(tb)
	n := netsim.New(netsim.Config{})
	root, err := n.AddNode(addr("2001:db8::1"), nil)
	if err != nil {
		tb.Fatal(err)
	}
	cl, err := New(Config{Network: n, Addr: addr("2001:db8::2"), Parent: root})
	if err != nil {
		tb.Fatal(err)
	}
	ib := &ingestBed{cl: cl}
	cl.AddAdvertHook(func(Advert) { ib.hooked++ })
	// No node serves the discovery and the clock never runs: the window
	// stays open for the whole run.
	retract := cl.Discover(hw.DeviceIDAllPeripherals, time.Hour, func([]Advert) {})
	tb.Cleanup(retract)
	seq := cl.seq
	ib.pd = cl.pending[seq]
	payload := append(proto.AppendHeader(nil, proto.MsgSolicitedAdvert, seq), advert[proto.HeaderLen:]...)
	ib.msg = netsim.Message{Src: src, Dst: cl.Addr(), Payload: payload}
	ib.ingest()
	if v := cl.Adverts(); len(v) != 3 || v[0].Name != "bench" || v[0].Units == "" || v[2].Channel != 2 {
		tb.Fatalf("view after the first advert = %+v", v)
	}
	return ib
}

// ingest hands the advert to the client, then empties the discovery's
// collector as a new window would, so repeated ingests measure one
// advert's work and not the collector's growth.
func (ib *ingestBed) ingest() {
	ib.cl.handle(ib.msg)
	ib.cl.mu.Lock()
	*ib.pd.adverts = (*ib.pd.adverts)[:0]
	ib.cl.mu.Unlock()
}

// ingestBatch is the number of adverts one BenchmarkAdvertIngest op
// ingests, so a -benchtime 1x run measures a stable span.
const ingestBatch = 1_000

// BenchmarkAdvertIngest measures a client ingesting a Thing's solicited
// advert of three unchanged peripherals while a discovery is pending and
// one hook listens: decode, refresh of the three view entries, collection
// by the discovery and the hook calls. Steady state it allocates nothing.
func BenchmarkAdvertIngest(b *testing.B) {
	ib := newIngestBed(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < ingestBatch; j++ {
			ib.ingest()
		}
	}
	b.StopTimer()
	if want := 3 * (1 + b.N*ingestBatch); ib.hooked != want {
		b.Fatalf("hook fired %d times, want %d", ib.hooked, want)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*ingestBatch), "ns/advert")
}
