package thing

import (
	"testing"

	"micropnp/internal/driver"
	"micropnp/internal/netsim"
	"micropnp/internal/proto"
)

// readBatch is the number of reads one benchmark op covers, so a
// -benchtime 1x run (the CI regression gate) measures a stable span.
const readBatch = 1_000

// BenchmarkThingRead measures the Thing's read dispatch with no network in
// between: a read request for an installed TMP36 is handed straight to the
// Thing's handler, which decodes it, queues a pending read, arms its expiry,
// runs the driver's read handler on the VM and sends the data reply. The
// requester's address has no node, so the network drops the reply without
// scheduling a delivery; the drop counter confirms one reply per read.
func BenchmarkThingRead(b *testing.B) {
	tb := newTestBed(b)
	if err := tb.thing.InstallDriver(driver.IDTMP36, tmp36Source(b)); err != nil {
		b.Fatal(err)
	}
	plugTMP36(b, tb, 0)
	tb.net.RunUntilIdle(0)
	req, err := (&proto.Message{Type: proto.MsgRead, Seq: 7, DeviceID: driver.IDTMP36}).Encode()
	if err != nil {
		b.Fatal(err)
	}
	msg := netsim.Message{Src: addr("2001:db8::99"), Dst: tb.thing.Addr(), Payload: req}
	lost := tb.net.Stats().Lost
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < readBatch; j++ {
			tb.thing.handle(msg)
		}
	}
	b.StopTimer()
	if got := tb.net.Stats().Lost - lost; got != b.N*readBatch {
		b.Fatalf("%d replies for %d reads", got, b.N*readBatch)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*readBatch), "ns/read")
}
