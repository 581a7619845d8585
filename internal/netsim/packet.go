package netsim

import (
	"sync"
	"sync/atomic"
)

// Buf is a pooled, reference-counted packet payload buffer — the currency of
// the zero-allocation send path. The ownership rule is strict hand-off:
//
//   - A sender obtains a Buf with AcquireBuf, fills Buf.B (typically via
//     proto.AppendEncode into B[:0]) and passes it to Node.SendBuf, which
//     takes ownership. After SendBuf the sender must not touch the Buf.
//   - The network releases the buffer once the datagram's final delivery
//     handler returned, or when every copy is lost. Inside the network each
//     queued delivery holds one reference for all the receivers it reaches
//     (a multicast batch, a jittered copy, a unicast) and drops it after its
//     last receiver's handler; lost copies hold none, and the sender's
//     reference is dropped once the send has queued its deliveries. The last
//     release recycles.
//   - A sender that aborts before SendBuf (e.g. on an encode error) releases
//     the Buf itself with Release.
//
// Handlers consequently see Message.Payload only on loan: the bytes are valid
// for the duration of the handler call and are recycled afterwards. Retain
// them with an explicit copy; a message proto's Decoder parsed from them
// aliases the payload and is on the same loan.
type Buf struct {
	// B is the payload. Senders append into B[:0] to reuse the pooled
	// capacity.
	B []byte

	refs atomic.Int32
}

// maxPooledBuf bounds the capacity returned to the pool: occasional large
// datagrams (driver uploads) must not pin big arrays in the pool forever.
const maxPooledBuf = 4096

var bufPool = sync.Pool{New: func() any { return new(Buf) }}

// AcquireBuf returns an empty pooled buffer holding one reference.
func AcquireBuf() *Buf {
	pb := bufPool.Get().(*Buf)
	pb.refs.Store(1)
	pb.B = pb.B[:0]
	return pb
}

// retain adds n references (multicast fan-out takes one per delivery).
func (pb *Buf) retain(n int32) { pb.refs.Add(n) }

// Release drops one reference; the last release recycles the buffer. Callers
// must not touch the Buf after releasing it.
func (pb *Buf) Release() {
	if pb.refs.Add(-1) != 0 {
		return
	}
	if cap(pb.B) > maxPooledBuf {
		pb.B = nil
	}
	bufPool.Put(pb)
}

// Note for maintainers: client, manager and thing each carry a small
// identical send helper (AcquireBuf → AppendEncode into B[:0] → SendBuf,
// Release on encode error) instead of sharing one here behind an interface.
// That duplication is deliberate: an interface-typed encode call defeats
// escape analysis and forces every request message onto the heap, undoing
// about one allocation per send on the gated hot path. Keep the four sites
// in sync with the ownership rule above.
