package thing

import (
	"encoding/binary"
	"testing"
	"time"

	"micropnp/internal/driver"
	"micropnp/internal/hw"
	"micropnp/internal/proto"
)

// datagrams frames payloads the way FuzzThingDatagrams reads its input: each
// one behind a 2-byte big-endian length.
func datagrams(tb testing.TB, msgs ...*proto.Message) []byte {
	tb.Helper()
	var out []byte
	for _, m := range msgs {
		b, err := m.Encode()
		if err != nil {
			tb.Fatal(err)
		}
		out = binary.BigEndian.AppendUint16(out, uint16(len(b)))
		out = append(out, b...)
	}
	return out
}

// FuzzThingDatagrams delivers a sequence of datagrams, 100 ms apart, from
// the manager's node to a Thing serving a TMP36, then drains the network
// past PendingReadTimeout and two stream periods. Nothing may panic, no read
// may still be pending, every open stream's peripheral must still have a
// driver runtime, and no stream may be open without a member in its group:
// the drain covers a request's grace tick and the tick after it, which ends
// a stream nobody joined (the manager's node joins no stream group). The
// seeds hold every message type the Thing handles, a stream whose driver is
// then removed (that removal once left the stream open with no runtime to
// serve it), and a repeated stream request nobody subscribes to.
func FuzzThingDatagrams(f *testing.F) {
	code := tmp36Source(f)
	tmp := driver.IDTMP36
	for _, seed := range [][]*proto.Message{
		{{Type: proto.MsgDiscovery, Seq: 1}},
		{{Type: proto.MsgDriverDiscovery, Seq: 2}},
		{{Type: proto.MsgRead, Seq: 3, DeviceID: tmp}},
		{{Type: proto.MsgWrite, Seq: 4, DeviceID: tmp, Data: proto.Values32([]int32{1})}},
		{{Type: proto.MsgStream, Seq: 5, DeviceID: tmp}},
		{{Type: proto.MsgDriverRemovalReq, Seq: 6, DeviceID: tmp}},
		{{Type: proto.MsgDriverUpload, Seq: 7, DeviceID: tmp, Driver: code}},
		{{Type: proto.MsgData, Seq: 8, DeviceID: tmp}},
		{
			{Type: proto.MsgStream, Seq: 9, DeviceID: tmp},
			{Type: proto.MsgDriverRemovalReq, Seq: 10, DeviceID: tmp},
		},
		{
			{Type: proto.MsgStream, Seq: 11, DeviceID: tmp},
			{Type: proto.MsgRead, Seq: 12, DeviceID: tmp},
			{Type: proto.MsgDriverRemovalReq, Seq: 13, DeviceID: tmp},
			{Type: proto.MsgDriverUpload, Seq: 14, DeviceID: tmp, Driver: code},
			{Type: proto.MsgStream, Seq: 15, DeviceID: tmp},
		},
		{
			{Type: proto.MsgStream, Seq: 16, DeviceID: tmp},
			{Type: proto.MsgStream, Seq: 17, DeviceID: tmp},
		},
	} {
		f.Add(datagrams(f, seed...))
	}

	f.Fuzz(func(t *testing.T, in []byte) {
		tb := newTestBed(t)
		th := tb.thing
		if err := th.InstallDriver(tmp, code); err != nil {
			t.Fatal(err)
		}
		plugTMP36(t, tb, 0)
		tb.net.RunUntilIdle(0)
		if th.Runtime(tmp) == nil {
			t.Fatal("setup: the TMP36 driver must run")
		}
		for len(in) >= 2 {
			n := min(int(binary.BigEndian.Uint16(in)), len(in)-2)
			tb.mgr.Send(th.Addr(), in[2:2+n])
			in = in[2+n:]
			tb.net.RunUntil(tb.net.Now() + 100*time.Millisecond)
		}
		drain := max(PendingReadTimeout, 2*th.cfg.StreamPeriod) + time.Second
		tb.net.RunUntil(tb.net.Now() + drain)

		th.mu.Lock()
		var reads int
		for _, q := range th.pending {
			reads += len(q)
		}
		open := make(map[hw.DeviceID]streamState, len(th.streams))
		for id, st := range th.streams {
			open[id] = st
		}
		th.mu.Unlock()
		if reads != 0 {
			t.Fatalf("%d reads still pending %v after the last datagram", reads, drain)
		}
		for id, st := range open {
			if th.Runtime(id) == nil {
				t.Fatalf("the stream of %v is open, but no driver runtime serves it", id)
			}
			if !th.node.GroupHasMembers(st.group) {
				t.Fatalf("the stream of %v is open %v after the last datagram, but its group %v has no member", id, drain, st.group)
			}
		}
	})
}
