package netsim

import (
	"net/netip"
	"testing"
	"testing/quick"
	"time"

	"micropnp/internal/hw"
)

func TestZoneAddrRoundTrip(t *testing.T) {
	prefix := PrefixFromAddr(netip.MustParseAddr("2001:db8::1"))
	f := func(zone uint16, raw uint32) bool {
		id := hw.DeviceID(raw)
		a := MulticastAddrZone(prefix, zone, id)
		p, z, got, err := ParseMulticastZone(a)
		return err == nil && p == prefix && z == zone && got == id
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestZoneZeroEquivalence(t *testing.T) {
	prefix := PrefixFromAddr(netip.MustParseAddr("2001:db8::1"))
	if MulticastAddrZone(prefix, 0, 0x42) != MulticastAddr(prefix, 0x42) {
		t.Fatal("zone 0 must equal the Figure 9 form")
	}
}

func TestParseMulticastRejectsZoned(t *testing.T) {
	prefix := PrefixFromAddr(netip.MustParseAddr("2001:db8::1"))
	zoned := MulticastAddrZone(prefix, 7, 0x42)
	if _, _, err := ParseMulticast(zoned); err == nil {
		t.Fatal("the strict parser must reject zone-scoped addresses")
	}
	if _, z, id, err := ParseMulticastZone(zoned); err != nil || z != 7 || id != 0x42 {
		t.Fatalf("zone parser: z=%d id=%v err=%v", z, id, err)
	}
}

func TestClassGroupAddress(t *testing.T) {
	prefix := PrefixFromAddr(netip.MustParseAddr("2001:db8::1"))
	g := ClassGroup(prefix, hw.ClassTemperature)
	_, id, err := ParseMulticast(g)
	if err != nil {
		t.Fatal(err)
	}
	if !id.Structured().IsClassWildcard() || id.Structured().Class != hw.ClassTemperature {
		t.Fatalf("class group id = %v", id)
	}
}

func TestZoneGroupsAreDistinct(t *testing.T) {
	// Zone scoping must partition delivery: members of zone 1 do not see
	// zone 2 traffic for the same peripheral type.
	n := New(Config{})
	root, _ := n.AddNode(netip.MustParseAddr("2001:db8::1"), nil)
	a, _ := n.AddNode(netip.MustParseAddr("2001:db8::2"), root)
	b, _ := n.AddNode(netip.MustParseAddr("2001:db8::3"), root)
	prefix := PrefixFromAddr(root.Addr())

	g1 := MulticastAddrZone(prefix, 1, 0x42)
	g2 := MulticastAddrZone(prefix, 2, 0x42)
	a.JoinGroup(g1)
	b.JoinGroup(g2)

	var gotA, gotB int
	a.Bind(func(Message) { gotA++ })
	b.Bind(func(Message) { gotB++ })

	root.Send(g1, []byte("zone1"))
	n.RunUntilIdle(0)
	if gotA != 1 || gotB != 0 {
		t.Fatalf("zone 1 traffic: a=%d b=%d", gotA, gotB)
	}
}

func TestRunUntilStopsAtDeadline(t *testing.T) {
	n := New(Config{})
	fired := []time.Duration{}
	for _, at := range []time.Duration{time.Second, 2 * time.Second, 3 * time.Second} {
		at := at
		n.Schedule(at, func() { fired = append(fired, at) })
	}
	steps := n.RunUntil(2 * time.Second)
	if steps != 2 || len(fired) != 2 {
		t.Fatalf("steps=%d fired=%v", steps, fired)
	}
	if n.Now() != 2*time.Second {
		t.Fatalf("clock = %v, must advance exactly to the deadline", n.Now())
	}
	// The remaining event still runs later.
	n.RunUntilIdle(0)
	if len(fired) != 3 {
		t.Fatalf("fired = %v", fired)
	}
}

func TestRunUntilWithRecurringEvents(t *testing.T) {
	n := New(Config{})
	count := 0
	var tick func()
	tick = func() {
		count++
		n.Schedule(time.Second, tick)
	}
	n.Schedule(time.Second, tick)
	n.RunUntil(5 * time.Second)
	if count != 5 {
		t.Fatalf("ticks = %d, want 5 (self-rescheduling bounded by deadline)", count)
	}
}

// TestStreamGroupAddressRule: a stream group is multicast, lays out its
// channel, the Thing's prefix, zone and host as documented, never parses as
// a Figure 9, zone or class group, and is distinct for every (Thing,
// channel) of 100k Things spread over 8 zones.
func TestStreamGroupAddressRule(t *testing.T) {
	prefix := PrefixFromAddr(netip.MustParseAddr("2001:db8::1"))
	if g, want := StreamGroup(UnicastAddr(prefix, 7, 0x101), 2), netip.MustParseAddr("ff3e:231:2001:db8:0:7:0:101"); g != want {
		t.Fatalf("StreamGroup = %v, want %v", g, want)
	}
	const things = 100_000
	seen := make(map[netip.Addr]bool, things*hw.DefaultChannels)
	for host := range things {
		thing := UnicastAddr(prefix, uint16(1+host%8), uint32(0x100+host))
		for ch := range hw.DefaultChannels {
			g := StreamGroup(thing, ch)
			if !g.IsMulticast() || IsUPnPMulticast(g) {
				t.Fatalf("%v (Thing %v, channel %d): multicast %v, Figure 9 %v", g, thing, ch, g.IsMulticast(), IsUPnPMulticast(g))
			}
			if _, _, _, err := ParseMulticastZone(g); err == nil {
				t.Fatalf("stream group %v parses as a peripheral group", g)
			}
			if seen[g] {
				t.Fatalf("stream group %v names two streams", g)
			}
			seen[g] = true
		}
	}
}
