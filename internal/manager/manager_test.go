package manager

import (
	"errors"
	"net/netip"
	"testing"
	"time"

	"micropnp/internal/driver"
	"micropnp/internal/hw"
	"micropnp/internal/netsim"
	"micropnp/internal/proto"
	"micropnp/internal/reqerr"
)

func addr(s string) netip.Addr { return netip.MustParseAddr(s) }

func setup(t *testing.T) (*netsim.Network, *Manager, *netsim.Node, *[]*proto.Message) {
	t.Helper()
	n := netsim.New(netsim.Config{})
	repo, err := driver.StandardRepository()
	if err != nil {
		t.Fatal(err)
	}
	mgr, err := New(Config{
		Network:    n,
		Addr:       addr("2001:db8::1"),
		Anycast:    addr("2001:db8::aaaa"),
		Repository: repo,
	})
	if err != nil {
		t.Fatal(err)
	}
	peer, err := n.AddNode(addr("2001:db8::2"), mgr.Node())
	if err != nil {
		t.Fatal(err)
	}
	inbox := &[]*proto.Message{}
	peer.Bind(func(m netsim.Message) {
		if pm, err := proto.Decode(m.Payload); err == nil {
			*inbox = append(*inbox, pm)
		}
	})
	return n, mgr, peer, inbox
}

func sendTo(t *testing.T, n *netsim.Network, from *netsim.Node, dst netip.Addr, m *proto.Message) {
	t.Helper()
	payload, err := m.Encode()
	if err != nil {
		t.Fatal(err)
	}
	from.Send(dst, payload)
}

func TestManagerServesDriverViaAnycast(t *testing.T) {
	n, mgr, peer, inbox := setup(t)
	sendTo(t, n, peer, addr("2001:db8::aaaa"),
		&proto.Message{Type: proto.MsgDriverInstallReq, Seq: 5, DeviceID: driver.IDTMP36})
	n.RunUntilIdle(0)

	if len(*inbox) != 1 {
		t.Fatalf("inbox = %d messages", len(*inbox))
	}
	up := (*inbox)[0]
	if up.Type != proto.MsgDriverUpload || up.Seq != 5 || up.DeviceID != driver.IDTMP36 {
		t.Fatalf("upload = %+v", up)
	}
	if len(up.Driver) == 0 {
		t.Fatal("upload must carry the driver bytes")
	}
	if mgr.Uploads() != 1 {
		t.Fatalf("uploads = %d", mgr.Uploads())
	}
	// Lookup cost must have been charged before the upload was sent.
	if n.Now() < CostLookup {
		t.Fatalf("virtual time %v < lookup cost", n.Now())
	}
}

func TestManagerUnknownDriverSilent(t *testing.T) {
	n, mgr, peer, inbox := setup(t)
	sendTo(t, n, peer, mgr.Node().Addr(),
		&proto.Message{Type: proto.MsgDriverInstallReq, Seq: 6, DeviceID: 0xdeadbeef})
	n.RunUntilIdle(0)
	if len(*inbox) != 0 {
		t.Fatal("unknown driver must not produce an upload")
	}
	if mgr.Uploads() != 0 {
		t.Fatal("no upload must be counted")
	}
}

func TestManagerDriverDiscoveryFlow(t *testing.T) {
	n, mgr, peer, _ := setup(t)
	// The peer plays a Thing: reply to driver discovery with an advert.
	peer.Bind(func(m netsim.Message) {
		pm, err := proto.Decode(m.Payload)
		if err != nil || pm.Type != proto.MsgDriverDiscovery {
			return
		}
		reply := &proto.Message{Type: proto.MsgDriverAdvert, Seq: pm.Seq,
			Drivers: []hw.DeviceID{driver.IDBMP180}}
		payload, _ := reply.Encode()
		peer.Send(m.Src, payload)
	})

	var got []hw.DeviceID
	mgr.DiscoverDrivers(peer.Addr(), 0, func(ids []hw.DeviceID, err error) {
		if err == nil {
			got = ids
		}
	})
	n.RunUntilIdle(0)

	if len(got) != 1 || got[0] != driver.IDBMP180 {
		t.Fatalf("discovered = %v", got)
	}
	if cached := mgr.Discovered(peer.Addr()); len(cached) != 1 || cached[0] != driver.IDBMP180 {
		t.Fatalf("cached = %v", cached)
	}
}

func TestManagerRemovalFlow(t *testing.T) {
	n, mgr, peer, _ := setup(t)
	peer.Bind(func(m netsim.Message) {
		pm, err := proto.Decode(m.Payload)
		if err != nil || pm.Type != proto.MsgDriverRemovalReq {
			return
		}
		reply := &proto.Message{Type: proto.MsgDriverRemovalAck, Seq: pm.Seq,
			DeviceID: pm.DeviceID, Status: 0}
		payload, _ := reply.Encode()
		peer.Send(m.Src, payload)
	})

	var ok bool
	mgr.RemoveDriver(peer.Addr(), driver.IDTMP36, 0, func(err error) { ok = err == nil })
	n.RunUntilIdle(0)
	if !ok {
		t.Fatal("removal must be acknowledged")
	}
}

// TestManagerRequestsExpire covers the new deadline behaviour: management
// requests against an unresponsive Thing complete with a timeout error
// instead of leaking in the pending tables forever.
func TestManagerRequestsExpire(t *testing.T) {
	n, mgr, peer, _ := setup(t)
	// The peer never replies (no handler bound beyond setup's inbox).

	var discoverErr, removeErr error
	mgr.DiscoverDrivers(peer.Addr(), 100*time.Millisecond, func(_ []hw.DeviceID, err error) {
		discoverErr = err
	})
	mgr.RemoveDriver(peer.Addr(), driver.IDTMP36, 100*time.Millisecond, func(err error) {
		removeErr = err
	})
	n.RunUntilIdle(0)

	if !errors.Is(discoverErr, reqerr.ErrTimeout) {
		t.Fatalf("discover error = %v, want timeout", discoverErr)
	}
	if !errors.Is(removeErr, reqerr.ErrTimeout) {
		t.Fatalf("removal error = %v, want timeout", removeErr)
	}
}

// TestManagerStaleAdvertCannotSwallowRemoval: a late driver advert whose
// sequence number was recycled for a removal must not consume the
// removal's pending entry — the removal's callback must still fire.
func TestManagerStaleAdvertCannotSwallowRemoval(t *testing.T) {
	n, mgr, peer, _ := setup(t)

	// A discovery that expires unanswered.
	var discoverErr error
	mgr.DiscoverDrivers(peer.Addr(), 50*time.Millisecond, func(_ []hw.DeviceID, err error) {
		discoverErr = err
	})
	n.RunUntilIdle(0)
	if !errors.Is(discoverErr, reqerr.ErrTimeout) {
		t.Fatalf("setup: discover = %v, want timeout", discoverErr)
	}

	// Force the next request onto the expired discovery's seq (recycling).
	mgr.mu.Lock()
	staleSeq := mgr.seq
	mgr.seq = staleSeq - 1
	mgr.mu.Unlock()

	var removeErr = errors.New("never fired")
	mgr.RemoveDriver(peer.Addr(), driver.IDTMP36, 200*time.Millisecond, func(err error) {
		removeErr = err
	})

	// The stale advert for the old discovery arrives with the recycled seq.
	sendTo(t, n, peer, mgr.Node().Addr(),
		&proto.Message{Type: proto.MsgDriverAdvert, Seq: staleSeq, Drivers: []hw.DeviceID{driver.IDBMP180}})
	n.RunUntilIdle(0)

	// The removal must still complete (here: with its own timeout, since
	// the peer never acks) instead of being silently swallowed.
	if !errors.Is(removeErr, reqerr.ErrTimeout) {
		t.Fatalf("removal callback = %v, want its own timeout", removeErr)
	}
}

func TestManagerIgnoresGarbage(t *testing.T) {
	n, mgr, peer, inbox := setup(t)
	peer.Send(mgr.Node().Addr(), []byte{0xba, 0xad})
	n.RunUntilIdle(0)
	if len(*inbox) != 0 {
		t.Fatal("garbage must not trigger replies")
	}
}

// TestTwoManagersAnycastNearest verifies the Section 5 redundancy property:
// with two manager instances behind one anycast address, a Thing's request
// lands on the nearest one.
func TestTwoManagersAnycastNearest(t *testing.T) {
	n := netsim.New(netsim.Config{})
	repo, _ := driver.StandardRepository()
	any := addr("2001:db8::aaaa")

	far, err := New(Config{Network: n, Addr: addr("2001:db8::1"), Anycast: any, Repository: repo})
	if err != nil {
		t.Fatal(err)
	}
	mid, err := n.AddNode(addr("2001:db8::2"), far.Node())
	if err != nil {
		t.Fatal(err)
	}
	near, err := New(Config{Network: n, Addr: addr("2001:db8::3"), Anycast: any, Parent: mid, Repository: repo})
	if err != nil {
		t.Fatal(err)
	}
	// Topology: far <- mid <- near <- requester.
	requester, err := n.AddNode(addr("2001:db8::4"), near.Node())
	if err != nil {
		t.Fatal(err)
	}

	got := 0
	requester.Bind(func(m netsim.Message) { got++ })
	msg := &proto.Message{Type: proto.MsgDriverInstallReq, Seq: 1, DeviceID: driver.IDTMP36}
	payload, _ := msg.Encode()
	requester.Send(any, payload)
	n.RunUntilIdle(0)

	if got != 1 {
		t.Fatalf("requester received %d replies", got)
	}
	if near.Uploads() != 1 || far.Uploads() != 0 {
		t.Fatalf("uploads near=%d far=%d; anycast must pick the nearest manager",
			near.Uploads(), far.Uploads())
	}
}
