package client

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"micropnp/internal/hw"
	"micropnp/internal/netsim"
	"micropnp/internal/proto"
)

// recordingPeer records every datagram it receives. It stays
// silent until the answerFrom-th datagram (1-based; 0 = never) and answers
// that one and every later one like a Thing would.
type recordingPeer struct {
	node       *netsim.Node
	answerFrom int
	got        [][]byte
}

func newRecordingPeer(t *testing.T, n *netsim.Network, parent *netsim.Node, answerFrom int) *recordingPeer {
	t.Helper()
	node, err := n.AddNode(addr("2001:db8::3"), parent)
	if err != nil {
		t.Fatal(err)
	}
	p := &recordingPeer{node: node, answerFrom: answerFrom}
	node.Bind(p.handle)
	return p
}

func (p *recordingPeer) handle(msg netsim.Message) {
	p.got = append(p.got, bytes.Clone(msg.Payload))
	if p.answerFrom == 0 || len(p.got) < p.answerFrom {
		return
	}
	m, err := proto.Decode(msg.Payload)
	if err != nil {
		return
	}
	reply := &proto.Message{Type: proto.MsgWriteAck, Seq: m.Seq, DeviceID: m.DeviceID}
	if m.Type == proto.MsgRead {
		reply = &proto.Message{Type: proto.MsgData, Seq: m.Seq, DeviceID: m.DeviceID, Data: proto.Values32([]int32{7})}
	}
	payload, _ := reply.Encode()
	p.node.Send(msg.Src, payload)
}

// retryRig is a client with RetryPolicy{Attempts: 3} next to a recording
// peer. The 1 s base backoff dwarfs the round trip, so a reply always lands
// before the next retransmission is due.
func retryRig(t *testing.T, answerFrom int) (*netsim.Network, *Client, *recordingPeer) {
	t.Helper()
	n := netsim.New(netsim.Config{})
	root, err := n.AddNode(addr("2001:db8::1"), nil)
	if err != nil {
		t.Fatal(err)
	}
	cl, err := New(Config{Network: n, Addr: addr("2001:db8::2"), Parent: root,
		Retry: RetryPolicy{Attempts: 3, BaseBackoff: time.Second}})
	if err != nil {
		t.Fatal(err)
	}
	return n, cl, newRecordingPeer(t, n, root, answerFrom)
}

// retryOps issues one read or one write; done receives its outcome.
var retryOps = []struct {
	name  string
	issue func(cl *Client, dst *recordingPeer, done func(error))
	check func(t *testing.T, m *proto.Message)
}{
	{"read", func(cl *Client, dst *recordingPeer, done func(error)) {
		cl.Read(dst.node.Addr(), 0xad1cbe01, 30*time.Second, func(_ []int32, err error) { done(err) })
	}, func(t *testing.T, m *proto.Message) {
		if m.Type != proto.MsgRead || m.DeviceID != 0xad1cbe01 {
			t.Fatalf("datagram = %v for %v, want a read of 0xad1cbe01", m.Type, m.DeviceID)
		}
	}},
	{"write", func(cl *Client, dst *recordingPeer, done func(error)) {
		cl.Write(dst.node.Addr(), hw.DeviceID(0x00000101), []int32{5, -6}, 30*time.Second, done)
	}, func(t *testing.T, m *proto.Message) {
		if m.Type != proto.MsgWrite || m.DeviceID != 0x00000101 || !bytes.Equal(m.Data, proto.Values32([]int32{5, -6})) {
			t.Fatalf("datagram = %v for %v with data %x, want the write of [5 -6]", m.Type, m.DeviceID, m.Data)
		}
	}},
}

// TestRetransmissionScheduleToSilentPeer pins the ARQ schedule: against a
// peer that never answers, a request with RetryPolicy{Attempts: 3} puts
// exactly 1+3 identical datagrams on the wire (same sequence number, same
// bytes, a write's payload included) and then expires with ErrTimeout.
func TestRetransmissionScheduleToSilentPeer(t *testing.T) {
	for _, op := range retryOps {
		t.Run(op.name, func(t *testing.T) {
			n, cl, peer := retryRig(t, 0)
			var got error
			calls := 0
			op.issue(cl, peer, func(err error) { calls++; got = err })
			n.RunUntilIdle(0)
			if calls != 1 || !errors.Is(got, ErrTimeout) {
				t.Fatalf("callback fired %d times with %v, want once with ErrTimeout", calls, got)
			}
			if len(peer.got) != 4 {
				t.Fatalf("%d datagrams on the wire, want 1 send + 3 retransmissions", len(peer.got))
			}
			for i, b := range peer.got {
				if !bytes.Equal(b, peer.got[0]) {
					t.Fatalf("datagram %d = %x differs from the first %x", i, b, peer.got[0])
				}
			}
			m, err := proto.Decode(peer.got[0])
			if err != nil {
				t.Fatal(err)
			}
			op.check(t, m)
			if p := cl.Pending(); p != 0 {
				t.Fatalf("%d requests still pending after expiry", p)
			}
		})
	}
}

// TestRetransmissionStopsAtReply answers the first retransmission: the
// request completes, and no later retransmission leaves the client.
func TestRetransmissionStopsAtReply(t *testing.T) {
	for _, op := range retryOps {
		t.Run(op.name, func(t *testing.T) {
			n, cl, peer := retryRig(t, 2)
			got := errors.New("callback never fired")
			op.issue(cl, peer, func(err error) { got = err })
			n.RunUntilIdle(0)
			if got != nil {
				t.Fatalf("request answered on its retransmission failed: %v", got)
			}
			if len(peer.got) != 2 {
				t.Fatalf("%d datagrams on the wire, want the send and one retransmission", len(peer.got))
			}
			if !bytes.Equal(peer.got[1], peer.got[0]) {
				t.Fatalf("retransmission %x differs from the send %x", peer.got[1], peer.got[0])
			}
		})
	}
}
