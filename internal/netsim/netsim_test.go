package netsim

import (
	"math/rand"
	"net/netip"
	"testing"
	"testing/quick"
	"time"

	"micropnp/internal/hw"
)

func addr(s string) netip.Addr { return netip.MustParseAddr(s) }

func buildLine(t *testing.T, n *Network, count int) []*Node {
	t.Helper()
	nodes := make([]*Node, count)
	var parent *Node
	for i := 0; i < count; i++ {
		nd, err := n.AddNode(addr("2001:db8::"+string(rune('1'+i))), parent)
		if err != nil {
			t.Fatal(err)
		}
		nodes[i] = nd
		parent = nd
	}
	return nodes
}

func TestUnicastOneHop(t *testing.T) {
	n := New(Config{})
	nodes := buildLine(t, n, 2)
	type arrival struct {
		payload string // copied in-handler: Payload is only borrowed
		hops    int
	}
	var got []arrival
	nodes[1].Bind(func(m Message) { got = append(got, arrival{string(m.Payload), m.Hops}) })

	nodes[0].Send(nodes[1].Addr(), []byte("hello"))
	n.RunUntilIdle(0)

	if len(got) != 1 {
		t.Fatalf("delivered %d messages", len(got))
	}
	if got[0].hops != 1 || got[0].payload != "hello" {
		t.Fatalf("message = %+v", got[0])
	}
	want := PacketDelay(5, false)
	if n.Now() != want {
		t.Fatalf("delivery time = %v, want %v", n.Now(), want)
	}
}

func TestUnicastMultiHop(t *testing.T) {
	n := New(Config{})
	nodes := buildLine(t, n, 4) // chain of 4: 3 hops end to end
	var hops int
	nodes[3].Bind(func(m Message) { hops = m.Hops })
	nodes[0].Send(nodes[3].Addr(), []byte("x"))
	n.RunUntilIdle(0)
	if hops != 3 {
		t.Fatalf("hops = %d, want 3", hops)
	}
	if st := n.Stats(); st.Transmissions != 3 {
		t.Fatalf("transmissions = %d, want 3", st.Transmissions)
	}
}

func TestUnicastToSibling(t *testing.T) {
	n := New(Config{})
	root, _ := n.AddNode(addr("2001:db8::1"), nil)
	a, _ := n.AddNode(addr("2001:db8::2"), root)
	b, _ := n.AddNode(addr("2001:db8::3"), root)
	var hops int
	b.Bind(func(m Message) { hops = m.Hops })
	a.Send(b.Addr(), []byte("x"))
	n.RunUntilIdle(0)
	if hops != 2 {
		t.Fatalf("sibling routing via parent: hops = %d, want 2", hops)
	}
}

func TestUnknownDestinationLost(t *testing.T) {
	n := New(Config{})
	nodes := buildLine(t, n, 1)
	nodes[0].Send(addr("2001:db8::ff"), []byte("x"))
	n.RunUntilIdle(0)
	if st := n.Stats(); st.Lost != 1 || st.Delivered != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestMulticastSMRF(t *testing.T) {
	// Tree:      root
	//           /    \
	//          a      b
	//         / \      \
	//        c   d      e
	n := New(Config{})
	root, _ := n.AddNode(addr("2001:db8::1"), nil)
	a, _ := n.AddNode(addr("2001:db8::2"), root)
	b, _ := n.AddNode(addr("2001:db8::3"), root)
	c, _ := n.AddNode(addr("2001:db8::4"), a)
	d, _ := n.AddNode(addr("2001:db8::5"), a)
	e, _ := n.AddNode(addr("2001:db8::6"), b)

	group := MulticastAddr(PrefixFromAddr(root.Addr()), 0xad1cbe01)
	got := map[netip.Addr]int{}
	for _, nd := range []*Node{c, d, e} {
		nd.JoinGroup(group)
		me := nd.Addr()
		nd.Bind(func(m Message) { got[me] = m.Hops })
	}
	// b is NOT in the group and must not receive.
	b.Bind(func(m Message) { t.Error("non-member b received multicast") })

	c.Send(group, []byte("adv"))
	n.RunUntilIdle(0)

	if len(got) != 2 {
		t.Fatalf("deliveries = %v, want d and e", got)
	}
	if got[d.Addr()] != 2 { // c -> a -> d
		t.Errorf("d hops = %d, want 2", got[d.Addr()])
	}
	if got[e.Addr()] != 4 { // c -> a -> root -> b -> e
		t.Errorf("e hops = %d, want 4", got[e.Addr()])
	}
	// SMRF duplicate suppression: union of path edges is
	// {c-a, a-d, a-root, root-b, b-e} = 5 transmissions, not 2+4=6.
	if st := n.Stats(); st.Transmissions != 5 {
		t.Errorf("transmissions = %d, want 5 (shared edges counted once)", st.Transmissions)
	}
}

func TestAnycastNearest(t *testing.T) {
	n := New(Config{})
	root, _ := n.AddNode(addr("2001:db8::1"), nil)
	near, _ := n.AddNode(addr("2001:db8::2"), root)
	farMid, _ := n.AddNode(addr("2001:db8::3"), root)
	far, _ := n.AddNode(addr("2001:db8::4"), farMid)
	src, _ := n.AddNode(addr("2001:db8::5"), near)

	any := addr("2001:db8::aaaa")
	n.JoinAnycast(any, far)
	n.JoinAnycast(any, near)

	var gotNear, gotFar bool
	near.Bind(func(Message) { gotNear = true })
	far.Bind(func(Message) { gotFar = true })

	src.Send(any, []byte("req"))
	n.RunUntilIdle(0)
	if !gotNear || gotFar {
		t.Fatalf("anycast must reach the nearest member: near=%v far=%v", gotNear, gotFar)
	}
}

func TestLossyLink(t *testing.T) {
	n := New(Config{LossRate: 1.0})
	nodes := buildLine(t, n, 2)
	delivered := false
	nodes[1].Bind(func(Message) { delivered = true })
	nodes[0].Send(nodes[1].Addr(), []byte("x"))
	n.RunUntilIdle(0)
	if delivered {
		t.Fatal("100% loss must drop everything")
	}
	if st := n.Stats(); st.Lost != 1 {
		t.Fatalf("lost = %d", st.Lost)
	}
}

func TestPacketDelayModel(t *testing.T) {
	small := PacketDelay(10, false)
	big := PacketDelay(300, false) // fragments into 4 frames
	if small >= big {
		t.Fatal("bigger datagrams must take longer")
	}
	if m := PacketDelay(10, true); m <= small {
		t.Fatal("multicast must cost more than unicast")
	}
	// One-hop small packets land in the tens of milliseconds, the regime
	// the Table 4 measurements live in.
	if small < 20*time.Millisecond || small > 40*time.Millisecond {
		t.Errorf("small packet delay = %v", small)
	}
}

func TestMulticastAddrSchema(t *testing.T) {
	prefix := PrefixFromAddr(addr("2001:db8::1"))
	g := MulticastAddr(prefix, 0xed3f0ac1)
	if g.String() != "ff3e:30:2001:db8::ed3f:ac1" {
		t.Fatalf("group = %v", g)
	}
	if !g.IsMulticast() {
		t.Fatal("schema address must be multicast")
	}
	p2, id, err := ParseMulticast(g)
	if err != nil {
		t.Fatal(err)
	}
	if p2 != prefix || id != 0xed3f0ac1 {
		t.Fatalf("parsed %v %v", p2, id)
	}
	if !IsUPnPMulticast(g) || IsUPnPMulticast(addr("ff02::1")) {
		t.Fatal("IsUPnPMulticast misclassifies")
	}
}

func TestMulticastAddrRoundTripProperty(t *testing.T) {
	prefix := PrefixFromAddr(addr("2001:db8::1"))
	f := func(v uint32) bool {
		id := hw.DeviceID(v)
		p, got, err := ParseMulticast(MulticastAddr(prefix, id))
		return err == nil && got == id && p == prefix
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

func TestReservedGroups(t *testing.T) {
	prefix := PrefixFromAddr(addr("2001:db8::1"))
	clients := AllClientsAddr(prefix)
	if clients.String() != "ff3e:30:2001:db8::ffff:ffff" {
		t.Fatalf("all-clients = %v", clients)
	}
	all := AllPeripheralsAddr(prefix)
	_, id, err := ParseMulticast(all)
	if err != nil || id != hw.DeviceIDAllPeripherals {
		t.Fatalf("all-peripherals = %v (%v)", all, err)
	}
}

func TestDuplicateAddressRejected(t *testing.T) {
	n := New(Config{})
	if _, err := n.AddNode(addr("2001:db8::1"), nil); err != nil {
		t.Fatal(err)
	}
	if _, err := n.AddNode(addr("2001:db8::1"), nil); err == nil {
		t.Fatal("duplicate address must be rejected")
	}
}

func TestHandlersMaySendMore(t *testing.T) {
	n := New(Config{})
	nodes := buildLine(t, n, 2)
	var pongs int
	nodes[0].Bind(func(m Message) { pongs++ })
	nodes[1].Bind(func(m Message) {
		nodes[1].Send(m.Src, []byte("pong"))
	})
	nodes[0].Send(nodes[1].Addr(), []byte("ping"))
	n.RunUntilIdle(0)
	if pongs != 1 {
		t.Fatalf("pongs = %d", pongs)
	}
	// Round trip took two one-hop packet delays.
	want := PacketDelay(4, false) * 2
	if n.Now() != want {
		t.Fatalf("round trip time = %v, want %v", n.Now(), want)
	}
}

func TestScheduleCancelable(t *testing.T) {
	n := New(Config{})
	nd := buildLine(t, n, 1)[0]
	fired := false
	ref := nd.ScheduleExpiry(time.Second, fnExpirer{}, 0, func() { fired = true })
	n.Schedule(100*time.Millisecond, func() {})
	ref.Cancel()
	n.RunUntilIdle(0)
	if fired {
		t.Fatal("cancelled event must not run")
	}
	if n.Now() != 100*time.Millisecond {
		t.Fatalf("clock = %v; a cancelled event must not advance virtual time", n.Now())
	}
}

// ---------------------------------------------------------------------------
// Heap event-queue semantics: cancellation at scale, deterministic ordering,
// bounded memory, and drop accounting.

func TestNoHandlerCountsAsDropped(t *testing.T) {
	n := New(Config{})
	nodes := buildLine(t, n, 2)
	// No handler bound on the destination: the stack drops the datagram.
	nodes[0].Send(nodes[1].Addr(), []byte("x"))
	n.RunUntilIdle(0)
	st := n.Stats()
	if st.Delivered != 0 || st.NoHandler != 1 {
		t.Fatalf("stats = %+v, want Delivered=0 NoHandler=1", st)
	}
	// Binding afterwards makes the next datagram count as delivered.
	nodes[1].Bind(func(Message) {})
	nodes[0].Send(nodes[1].Addr(), []byte("y"))
	n.RunUntilIdle(0)
	st = n.Stats()
	if st.Delivered != 1 || st.NoHandler != 1 {
		t.Fatalf("stats = %+v, want Delivered=1 NoHandler=1", st)
	}
}

func TestSameTimestampFIFO(t *testing.T) {
	n := New(Config{})
	var got []int
	for i := 0; i < 500; i++ {
		i := i
		n.Schedule(time.Second, func() { got = append(got, i) })
	}
	n.RunUntilIdle(0)
	if len(got) != 500 {
		t.Fatalf("fired %d events", len(got))
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("tie at the same timestamp fired out of order: got[%d] = %d", i, v)
		}
	}
}

func TestSameTimestampFIFOWithCancellations(t *testing.T) {
	n := New(Config{})
	var got []int
	var cancels []func()
	for i := 0; i < 300; i++ {
		i := i
		cancels = append(cancels, scheduleFn(n, time.Second, func() { got = append(got, i) }))
	}
	// Cancel every third event; the survivors must still fire in seq order.
	for i := 0; i < 300; i += 3 {
		cancels[i]()
	}
	n.RunUntilIdle(0)
	want := make([]int, 0, 200)
	for i := 0; i < 300; i++ {
		if i%3 != 0 {
			want = append(want, i)
		}
	}
	if len(got) != len(want) {
		t.Fatalf("fired %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order diverged at %d: got %d want %d", i, got[i], want[i])
		}
	}
}

func TestCancelAfterFireNoop(t *testing.T) {
	n := New(Config{})
	fired := 0
	cancel := scheduleFn(n, time.Millisecond, func() { fired++ })
	n.RunUntilIdle(0)
	if fired != 1 {
		t.Fatalf("fired = %d", fired)
	}
	cancel() // after the fact: must be a no-op
	cancel() // and idempotent
	n.Schedule(time.Millisecond, func() { fired++ })
	n.RunUntilIdle(0)
	if fired != 2 {
		t.Fatalf("later events disturbed by post-fire cancel: fired = %d", fired)
	}
}

// TestHeapMatchesReferenceOrdering drives a randomized interleaving of
// Schedule/ScheduleExpiry/Cancel/Step and checks every firing against a
// brute-force reference model of the former sorted-slice implementation:
// the live event with the smallest (timestamp, seq) fires next.
func TestHeapMatchesReferenceOrdering(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	n := New(Config{})
	type mirrorEv struct {
		at        time.Duration
		idx       int
		cancel    func()
		fired     bool
		cancelled bool
	}
	var all []*mirrorEv
	var got []int
	idx := 0
	for round := 0; round < 3000; round++ {
		for j := rng.Intn(4); j > 0; j-- {
			delay := time.Duration(rng.Intn(50)) * time.Millisecond
			me := &mirrorEv{at: n.Now() + delay, idx: idx}
			idx++
			id := me.idx
			fire := func() { got = append(got, id); me.fired = true }
			if rng.Intn(2) == 0 {
				me.cancel = scheduleFn(n, delay, fire)
			} else {
				n.Schedule(delay, fire)
			}
			all = append(all, me)
		}
		if rng.Intn(3) == 0 {
			// Cancel a random still-pending cancellable event.
			start := 0
			if len(all) > 0 {
				start = rng.Intn(len(all))
			}
			for k := 0; k < len(all); k++ {
				me := all[(start+k)%len(all)]
				if me.cancel != nil && !me.fired && !me.cancelled {
					me.cancel()
					me.cancelled = true
					break
				}
			}
		}
		if rng.Intn(6) == 0 && len(all) > 0 {
			// Cancel-after-fire must be a no-op even mid-run.
			me := all[rng.Intn(len(all))]
			if me.cancel != nil && me.fired {
				me.cancel()
			}
		}
		var want *mirrorEv
		for _, me := range all {
			if me.fired || me.cancelled {
				continue
			}
			if want == nil || me.at < want.at || (me.at == want.at && me.idx < want.idx) {
				want = me
			}
		}
		stepped := n.Step()
		if want == nil {
			if stepped {
				t.Fatalf("round %d: Step ran with no live event expected", round)
			}
			continue
		}
		if !stepped {
			t.Fatalf("round %d: Step found nothing, expected event %d", round, want.idx)
		}
		if last := got[len(got)-1]; last != want.idx {
			t.Fatalf("round %d: fired %d, reference model expects %d", round, last, want.idx)
		}
	}
}

// TestQueueCapacityBounded guards against the former queue = queue[1:] pop,
// which retained the backing array indefinitely: across 100k
// schedule/cancel/step cycles the heap's backing capacity must stay small.
func TestQueueCapacityBounded(t *testing.T) {
	n := New(Config{})
	rec := &expRecorder{}
	for i := 0; i < 100_000; i++ {
		ref := n.ScheduleExpiry(time.Hour, rec, 0, nil)
		n.Schedule(time.Microsecond, func() {})
		ref.Cancel()
		if !n.Step() {
			t.Fatal("expected a live event")
		}
	}
	if c := n.queueCap(); c > 4096 {
		t.Fatalf("queue capacity = %d after 100k schedule/cancel cycles; backing array must stay bounded", c)
	}
}

// TestSchedulePerOpScaling asserts the asymptotic win of the heap: per-event
// cost at 100x the queue depth must stay far below the linear blowup the
// sorted-slice implementation exhibited (which resorted the whole queue per
// insert). Generous margin keeps it robust on noisy CI runners.
func TestSchedulePerOpScaling(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-sensitive scaling check runs on the full (non-short) leg")
	}
	perOp := func(depth int) time.Duration {
		best := time.Duration(1<<62 - 1)
		for attempt := 0; attempt < 3; attempt++ {
			n := New(Config{})
			for i := 0; i < depth; i++ {
				n.Schedule(time.Hour+time.Duration(i)*time.Millisecond, func() {})
			}
			const ops = 100_000
			start := time.Now()
			for i := 0; i < ops; i++ {
				n.Schedule(time.Microsecond, func() {})
				n.Step()
			}
			if d := time.Since(start) / ops; d < best {
				best = d
			}
		}
		return best
	}
	shallow, deep := perOp(1_000), perOp(100_000)
	if shallow <= 0 {
		shallow = 1
	}
	if ratio := float64(deep) / float64(shallow); ratio > 10 {
		t.Fatalf("per-op cost at depth 100k is %.1fx depth 1k (%v vs %v); want O(log n) scaling",
			ratio, deep, shallow)
	}
}

// ---------------------------------------------------------------------------
// Route-cache invalidation

func TestMulticastMembershipInvalidation(t *testing.T) {
	n := New(Config{})
	root, _ := n.AddNode(addr("2001:db8::1"), nil)
	a, _ := n.AddNode(addr("2001:db8::2"), root)
	b, _ := n.AddNode(addr("2001:db8::3"), root)
	group := MulticastAddr(PrefixFromAddr(root.Addr()), 0xad1cbe01)
	recv := map[netip.Addr]int{}
	for _, nd := range []*Node{a, b} {
		nd.JoinGroup(group)
		me := nd.Addr()
		nd.Bind(func(Message) { recv[me]++ })
	}

	root.Send(group, []byte("1"))
	n.RunUntilIdle(0)
	tx1 := n.Stats().Transmissions
	if recv[a.Addr()] != 1 || recv[b.Addr()] != 1 || tx1 != 2 {
		t.Fatalf("first send: recv=%v tx=%d", recv, tx1)
	}

	// Second send exercises the cached plan: identical deliveries and the
	// same transmission increment.
	root.Send(group, []byte("2"))
	n.RunUntilIdle(0)
	if tx2 := n.Stats().Transmissions - tx1; recv[a.Addr()] != 2 || recv[b.Addr()] != 2 || tx2 != 2 {
		t.Fatalf("cached send: recv=%v tx delta=%d", recv, n.Stats().Transmissions-tx1)
	}

	// Leaving must invalidate the plan: b stops receiving, one edge fewer.
	before := n.Stats().Transmissions
	b.LeaveGroup(group)
	root.Send(group, []byte("3"))
	n.RunUntilIdle(0)
	if tx3 := n.Stats().Transmissions - before; recv[a.Addr()] != 3 || recv[b.Addr()] != 2 || tx3 != 1 {
		t.Fatalf("after leave: recv=%v tx delta=%d", recv, n.Stats().Transmissions-before)
	}

	// Re-joining must invalidate again.
	b.JoinGroup(group)
	root.Send(group, []byte("4"))
	n.RunUntilIdle(0)
	if recv[b.Addr()] != 3 {
		t.Fatalf("after re-join: recv=%v", recv)
	}
}

func TestMulticastPlanAfterAddNode(t *testing.T) {
	n := New(Config{})
	root, _ := n.AddNode(addr("2001:db8::1"), nil)
	a, _ := n.AddNode(addr("2001:db8::2"), root)
	group := MulticastAddr(PrefixFromAddr(root.Addr()), 0xad1cbe01)
	a.JoinGroup(group)
	gotA, gotC := 0, 0
	a.Bind(func(Message) { gotA++ })

	root.Send(group, []byte("1")) // primes the (root, group) plan
	n.RunUntilIdle(0)

	c, _ := n.AddNode(addr("2001:db8::4"), a)
	c.JoinGroup(group)
	var hopsC int
	c.Bind(func(m Message) { gotC++; hopsC = m.Hops })
	root.Send(group, []byte("2"))
	n.RunUntilIdle(0)
	if gotA != 2 || gotC != 1 || hopsC != 2 {
		t.Fatalf("after AddNode+Join: a=%d c=%d hopsC=%d", gotA, gotC, hopsC)
	}
}

func TestAnycastDistanceCacheAfterAddNode(t *testing.T) {
	n := New(Config{})
	root, _ := n.AddNode(addr("2001:db8::1"), nil)
	mid, _ := n.AddNode(addr("2001:db8::2"), root)
	far, _ := n.AddNode(addr("2001:db8::3"), mid)
	src, _ := n.AddNode(addr("2001:db8::4"), root)

	any := addr("2001:db8::aaaa")
	n.JoinAnycast(any, far)
	gotFar, gotNear := 0, 0
	far.Bind(func(Message) { gotFar++ })
	src.Send(any, []byte("1")) // warms src's routes with far the only member
	n.RunUntilIdle(0)

	// A nearer member added after the caches were warm must win.
	near, _ := n.AddNode(addr("2001:db8::5"), root)
	n.JoinAnycast(any, near)
	near.Bind(func(Message) { gotNear++ })
	src.Send(any, []byte("2"))
	n.RunUntilIdle(0)
	if gotFar != 1 || gotNear != 1 {
		t.Fatalf("anycast after AddNode: far=%d near=%d", gotFar, gotNear)
	}
}
