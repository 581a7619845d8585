package netsim

import (
	"fmt"
	"sync/atomic"
	"testing"
)

// TestMulticastPayloadReleasedOnce: a SendBuf multicast gives its payload
// buffer back exactly once, whatever becomes of the copies. The refcount
// ends at 0 after the network drained: above 0 would leak the buffer, below
// 0 means a release ran twice and a recycled buffer was released again.
// Every receiver reads the payload intact, so none ran on a buffer already
// recycled.
func TestMulticastPayloadReleasedOnce(t *testing.T) {
	for _, tc := range []struct {
		name   string
		cfg    Config
		nested bool // the first receiver drives the clock from its handler
		lost   string
	}{
		{name: "all-lost", cfg: Config{LossRate: 1}, lost: "all"},
		{name: "some-lost", cfg: Config{LossRate: 0.3, Seed: 5}, lost: "some"},
		{name: "zoned-some-lost", cfg: Config{Zones: 4, Workers: 1, LossRate: 0.3, Seed: 5}, lost: "some"},
		{name: "realtime-jitter", cfg: Config{Realtime: true, TimeScale: 1000, ProcJitter: 0.2, LossRate: 0.2, Seed: 5}, lost: "some"},
		{name: "nested-step", cfg: Config{}, nested: true, lost: "none"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			n := New(tc.cfg)
			defer n.Close()
			prefix := PrefixFromAddr(addr("2001:db8::1"))
			root, _ := n.AddNode(UnicastAddr(prefix, 0, 1), nil)
			group := MulticastAddr(prefix, 0xad1cbe01)
			const payload = "payload"
			var calls, corrupt atomic.Int64
			nested := tc.nested
			members := 0
			// Four relays, one per zone, each with three members below:
			// receivers on several lanes at one and two hops.
			for z := uint16(0); z < 4; z++ {
				relay, _ := n.AddNode(UnicastAddr(prefix, z, 2), root)
				for i := uint32(0); i < 3; i++ {
					nd, _ := n.AddNode(UnicastAddr(prefix, z, 3+i), relay)
					nd.JoinGroup(group)
					nd.Bind(func(m Message) {
						calls.Add(1)
						if string(m.Payload) != payload {
							corrupt.Add(1)
						}
						if nested {
							nested = false
							for n.Step() {
							}
						}
					})
					members++
				}
				relay.JoinGroup(group)
				relay.Bind(func(m Message) {
					calls.Add(1)
					if string(m.Payload) != payload {
						corrupt.Add(1)
					}
				})
				members++
			}
			pb := AcquireBuf()
			pb.B = append(pb.B, payload...)
			root.SendBuf(group, pb)
			n.RunUntilIdle(0)
			if r := pb.refs.Load(); r != 0 {
				t.Fatalf("payload refcount %d after the network drained, want 0", r)
			}
			st := n.Stats()
			if corrupt.Load() != 0 || int64(st.Delivered) != calls.Load() || st.Delivered+st.Lost != members {
				t.Fatalf("stats %+v, %d handler calls (%d on a bad payload), want %d copies", st, calls.Load(), corrupt.Load(), members)
			}
			got := "some"
			switch st.Lost {
			case 0:
				got = "none"
			case members:
				got = "all"
			}
			if got != tc.lost {
				t.Fatalf("%s of %d copies lost (%d), want %s", got, members, st.Lost, tc.lost)
			}
		})
	}
}

// TestStatsCountEarlierReceiversMidBatch: a handler that reads Stats while
// its multicast batch is still being handed out sees every earlier receiver
// of the batch counted, on one lane and on a zoned network alike.
func TestStatsCountEarlierReceiversMidBatch(t *testing.T) {
	for _, cfg := range []Config{{}, {Zones: 2, Workers: 1}} {
		t.Run(fmt.Sprintf("zones=%d", cfg.Zones), func(t *testing.T) {
			n := New(cfg)
			defer n.Close()
			root, _ := n.AddNode(addr("2001:db8::1"), nil)
			group := MulticastAddr(PrefixFromAddr(root.Addr()), 0xad1cbe01)
			var seen []int
			const members = 6
			for i := 0; i < members; i++ {
				nd, _ := n.AddNode(addr(fmt.Sprintf("2001:db8::%x", 2+i)), root)
				nd.JoinGroup(group)
				nd.Bind(func(Message) { seen = append(seen, n.Stats().Delivered) })
			}
			root.Send(group, []byte("x"))
			n.RunUntilIdle(0)
			if fmt.Sprint(seen) != "[0 1 2 3 4 5]" {
				t.Fatalf("Delivered seen by receivers %v, want [0 1 2 3 4 5]", seen)
			}
		})
	}
}
