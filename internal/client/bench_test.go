package client

import (
	"testing"
	"time"

	"micropnp/internal/netsim"
	"micropnp/internal/proto"
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
