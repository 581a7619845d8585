package netsim

import (
	"fmt"
	"net/netip"
	"os"
	"runtime"
	"testing"
	"time"
)

// schedBatch is the number of schedule+step cycles one benchmark op covers:
// a single cycle is ~200ns, far below timer resolution at -benchtime 1x, so
// the CI regression gate measures stable 10k-event batches instead.
const schedBatch = 10_000

// BenchmarkNetsimSchedule measures scheduler cost (one Schedule + one Step
// per event, schedBatch events per op) against a standing backlog of
// `depth` future events. The heap gives O(log n) per event: 10x the depth
// must cost well under 2x the per-event time (the former sorted-slice queue
// resorted everything per insert, an O(n log n) blowup).
func BenchmarkNetsimSchedule(b *testing.B) {
	for _, depth := range []int{1_000, 10_000, 100_000} {
		b.Run(fmt.Sprintf("depth=%d", depth), func(b *testing.B) {
			n := New(Config{})
			for i := 0; i < depth; i++ {
				n.Schedule(24*time.Hour+time.Duration(i)*time.Millisecond, func() {})
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for j := 0; j < schedBatch; j++ {
					n.Schedule(time.Microsecond, func() {})
					n.Step()
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*schedBatch), "ns/event")
		})
	}
}

// BenchmarkNetsimScheduleCancel measures the ScheduleExpiry + Cancel round
// trip under backlog (schedBatch cycles per op): cancellation is O(1) with
// lazy deletion, so the cost must not grow with queue depth.
func BenchmarkNetsimScheduleCancel(b *testing.B) {
	for _, depth := range []int{1_000, 100_000} {
		b.Run(fmt.Sprintf("depth=%d", depth), func(b *testing.B) {
			n := New(Config{})
			for i := 0; i < depth; i++ {
				n.Schedule(24*time.Hour+time.Duration(i)*time.Millisecond, func() {})
			}
			rec := &expRecorder{}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for j := 0; j < schedBatch; j++ {
					n.ScheduleExpiry(time.Hour, rec, 0, nil).Cancel()
					n.Schedule(time.Microsecond, func() {})
					n.Step()
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*schedBatch), "ns/event")
		})
	}
}

// BenchmarkChurnReplan measures the cost of keeping a warm SMRF plan valid
// across group churn: one op is `churnBatch` leave+join cycles of a single
// member, each followed by a plan access (the freshness cost a sender pays on
// its next multicast). With incremental plan maintenance this is O(depth) per
// cycle — flat as the group grows — where whole-plan invalidation rebuilt
// O(members × depth) state per cycle. Gated in CI on ns/op and allocs/op,
// after one untimed warm-up batch, so even one iteration is steady state.
func BenchmarkChurnReplan(b *testing.B) {
	const churnBatch = 64
	for _, count := range []int{1_000, 5_000} {
		b.Run(fmt.Sprintf("members=%d", count), func(b *testing.B) {
			n := New(Config{})
			nodes := benchTree(b, n, count)
			group := MulticastAddr(PrefixFromAddr(nodes[0].Addr()), 0xad1cbe01)
			for _, nd := range nodes[1:] {
				nd.JoinGroup(group)
			}
			churn := nodes[len(nodes)-1] // a leaf: deepest splice path
			batch := func() {
				for j := 0; j < churnBatch; j++ {
					churn.LeaveGroup(group)
					churn.JoinGroup(group)
					n.topoMu.RLock()
					plan := n.multicastPlan(nodes[0], group)
					n.topoMu.RUnlock()
					if len(plan.targets) != count-1 {
						b.Fatalf("plan has %d targets, want %d", len(plan.targets), count-1)
					}
				}
			}
			// Warm the (root, group) plan, then run one untimed churn batch:
			// the first splices grow the plan's maps, and the gate runs this
			// benchmark at -benchtime 1x, where that one-off growth would
			// otherwise be all it measures. Collecting the set-up garbage
			// before the timer starts keeps a GC cycle out of that single
			// timed iteration.
			n.topoMu.RLock()
			n.multicastPlan(nodes[0], group)
			n.topoMu.RUnlock()
			batch()
			runtime.GC()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				batch()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*churnBatch), "ns/churn")
		})
	}
}

// BenchmarkPlanBuild measures cold SMRF plan builds: one op flushes the plan
// cache and builds the (group, source) plans of 64 sources over a
// 2,000-node tree in 8 address zones, for a 500-member group — the shape of
// a zoned deployment's peripheral-type groups, whose every member sends.
func BenchmarkPlanBuild(b *testing.B) {
	const count, zones, sources = 2000, 8, 64
	n := New(Config{Zones: zones, Workers: 1})
	defer n.Close()
	prefix := PrefixFromAddr(addr("2001:db8::1"))
	root, err := n.AddNode(UnicastAddr(prefix, 0, 1), nil)
	if err != nil {
		b.Fatal(err)
	}
	// Each zone is a 4-ary subtree under its own zone root.
	nodes := []*Node{root}
	perZone := (count - 1) / zones
	for z := 0; z < zones; z++ {
		zoneNodes := make([]*Node, 0, perZone)
		for i := 0; i < perZone; i++ {
			parent := root
			if i > 0 {
				parent = zoneNodes[(i-1)/4]
			}
			nd, err := n.AddNode(UnicastAddr(prefix, uint16(z+1), uint32(2+i)), parent)
			if err != nil {
				b.Fatal(err)
			}
			zoneNodes = append(zoneNodes, nd)
		}
		nodes = append(nodes, zoneNodes...)
	}
	group := MulticastAddr(prefix, 0xad1cbe01)
	members := 0
	for i := 1; i < len(nodes) && members < 500; i += len(nodes) / 500 {
		nodes[i].JoinGroup(group)
		members++
	}
	srcs := make([]*Node, sources)
	for i := range srcs {
		srcs[i] = nodes[1+i*(len(nodes)-1)/sources]
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n.topoMu.Lock()
		n.invalidateRoutes()
		n.topoMu.Unlock()
		n.topoMu.RLock()
		for _, src := range srcs {
			if plan := n.multicastPlan(src, group); len(plan.targets) < members-1 {
				b.Fatalf("plan has %d targets, want at least %d", len(plan.targets), members-1)
			}
		}
		n.topoMu.RUnlock()
	}
}

// BenchmarkShardedCrossLane measures the sharded clock's cross-lane path on
// an 8-zone tree: one op is a multicast from the root to members in every
// zone, sent from an event on the root's lane so each copy bound for another
// lane goes through the outbox and the barrier merge, plus a unicast reply
// from every member back to the root, which crosses lanes the other way. The
// sequential schedule (Workers 1) keeps the measurement on one core. A warm
// op should allocate nothing.
func BenchmarkShardedCrossLane(b *testing.B) {
	const zones, perZone = 8, 16
	n := New(Config{Zones: zones, Workers: 1})
	defer n.Close()
	prefix := PrefixFromAddr(addr("2001:db8::1"))
	root, err := n.AddNode(UnicastAddr(prefix, 0, 1), nil)
	if err != nil {
		b.Fatal(err)
	}
	group := MulticastAddr(prefix, 0xad1cbe01)
	for z := 0; z < zones; z++ {
		zr, err := n.AddNode(UnicastAddr(prefix, uint16(z), 2), root)
		if err != nil {
			b.Fatal(err)
		}
		for i := 0; i < perZone; i++ {
			nd, err := n.AddNode(UnicastAddr(prefix, uint16(z), uint32(3+i)), zr)
			if err != nil {
				b.Fatal(err)
			}
			nd.JoinGroup(group)
			nd.Bind(func(m Message) { nd.Send(m.Src, m.Payload) })
		}
	}
	replies := 0
	root.Bind(func(Message) { replies++ })
	payload := []byte("adv")
	fanOut := func() { root.Send(group, payload) }
	op := func() {
		root.Schedule(0, fanOut)
		n.RunUntilIdle(0)
	}
	op() // warm the plan, the pools and the outboxes
	replies = 0
	before := n.Stats()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op()
	}
	b.StopTimer()
	if want := b.N * zones * perZone; replies != want {
		b.Fatalf("got %d replies, want %d", replies, want)
	}
	after := n.Stats()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(after.ShardEvents-before.ShardEvents), "ns/event")
}

// benchTree builds an n-node 4-ary tree and returns the nodes (index 0 is
// the root).
func benchTree(b *testing.B, n *Network, count int) []*Node {
	b.Helper()
	nodes := make([]*Node, count)
	for i := 0; i < count; i++ {
		var parent *Node
		if i > 0 {
			parent = nodes[(i-1)/4]
		}
		var bytes [16]byte
		bytes[0], bytes[1] = 0x20, 0x01
		bytes[12] = byte(i >> 24)
		bytes[13] = byte(i >> 16)
		bytes[14] = byte(i >> 8)
		bytes[15] = byte(i)
		nd, err := n.AddNode(netip.AddrFrom16(bytes), parent)
		if err != nil {
			b.Fatal(err)
		}
		nodes[i] = nd
	}
	return nodes
}

// BenchmarkScaleMulticast measures one SMRF dissemination to a group with
// `members` subscribers spread over a 4-ary tree, including delivery of
// every copy. The membership index and cached plans make the per-send cost
// proportional to the member count, not the node count.
func BenchmarkScaleMulticast(b *testing.B) {
	for _, count := range []int{100, 1_000, 5_000} {
		b.Run(fmt.Sprintf("nodes=%d", count), func(b *testing.B) {
			n := New(Config{})
			nodes := benchTree(b, n, count)
			group := MulticastAddr(PrefixFromAddr(nodes[0].Addr()), 0xad1cbe01)
			delivered := 0
			for _, nd := range nodes[1:] {
				nd.JoinGroup(group)
				nd.Bind(func(Message) { delivered++ })
			}
			// Prime the plan cache once; steady-state sends are what scale.
			// The gate runs this at -benchtime 1x, so the set-up garbage is
			// collected before the timer starts, and a second warm send then
			// refills the pools that collection drained: otherwise one
			// sample's allocation count tracks pool refills after a GC
			// cycle, not the send path.
			nodes[0].Send(group, []byte("warm"))
			n.RunUntilIdle(0)
			runtime.GC()
			nodes[0].Send(group, []byte("warm"))
			n.RunUntilIdle(0)
			delivered = 0
			// Batch sends per op so -benchtime 1x (the CI regression
			// gate) measures milliseconds, not one noisy send.
			const batch = 8
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for j := 0; j < batch; j++ {
					nodes[0].Send(group, []byte("adv"))
					n.RunUntilIdle(0)
				}
			}
			b.StopTimer()
			if delivered != b.N*batch*(count-1) {
				b.Fatalf("delivered %d, want %d", delivered, b.N*batch*(count-1))
			}
			b.ReportMetric(float64(count-1), "members")
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*batch), "ns/send")
		})
	}

	// The lossy fan-out: the nodes=1000 send at the zoned-churn workload's 2%
	// per-hop loss, so every copy pays its per-hop loss draws from the
	// sender's stream and survivors reach their handlers. Stream sends take
	// this path, so a regression here names the netsim draw layer.
	b.Run("loss=2%", func(b *testing.B) {
		const count = 1_000
		n := New(Config{LossRate: 0.02})
		nodes := benchTree(b, n, count)
		group := MulticastAddr(PrefixFromAddr(nodes[0].Addr()), 0xad1cbe01)
		calls := 0
		for _, nd := range nodes[1:] {
			nd.JoinGroup(group)
			nd.Bind(func(Message) { calls++ })
		}
		// Warm as nodes= does: prime the plan, collect the set-up garbage,
		// refill the pools.
		nodes[0].Send(group, []byte("warm"))
		n.RunUntilIdle(0)
		runtime.GC()
		nodes[0].Send(group, []byte("warm"))
		n.RunUntilIdle(0)
		before, beforeCalls := n.Stats(), calls
		const batch = 8
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for j := 0; j < batch; j++ {
				nodes[0].Send(group, []byte("adv"))
				n.RunUntilIdle(0)
			}
		}
		b.StopTimer()
		after := n.Stats()
		delivered, lost := after.Delivered-before.Delivered, after.Lost-before.Lost
		if delivered+lost != b.N*batch*(count-1) || lost == 0 {
			b.Fatalf("delivered %d and lost %d copies, want %d copies with some lost", delivered, lost, b.N*batch*(count-1))
		}
		if called := calls - beforeCalls; called != delivered {
			b.Fatalf("%d handler calls for %d delivered copies", called, delivered)
		}
		b.ReportMetric(float64(count-1), "members")
		b.ReportMetric(float64(lost)/float64(b.N*batch), "lost/send")
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*batch), "ns/send")
	})

	// The parallel-speedup pair: the identical zone-partitioned fan-out —
	// every zone root disseminating to its own zone-scoped group — run on the
	// parallel sharded schedule (clock=sharded) and the sequential single-loop
	// schedule (clock=single) of the same topology and seed. Bit-determinism
	// makes the two runs execute the same events, so the single/sharded ns/op
	// ratio is pure parallel speedup; benchgate's speedup-clock gate checks
	// it. The CI scale-100k job sets MICROPNP_SCALE_100K=1 for the gated
	// 50,000-node tier; the default size keeps local runs quick.
	count := 2000
	if os.Getenv("MICROPNP_SCALE_100K") != "" {
		count = 50000
	}
	const zones = 16
	for _, mode := range []struct {
		name    string
		workers int
	}{
		{"sharded", 0},
		{"single", 1},
	} {
		b.Run(fmt.Sprintf("zoned=%d/clock=%s", count, mode.name), func(b *testing.B) {
			n := New(Config{Zones: zones, Workers: mode.workers})
			defer n.Close()
			prefix := PrefixFromAddr(addr("2001:db8::1"))
			root, err := n.AddNode(UnicastAddr(prefix, 0, 1), nil)
			if err != nil {
				b.Fatal(err)
			}
			// Location zones are 1-based (zone 0 is the unscoped group form).
			zoneRoots := make([]*Node, zones+1)
			groups := make([]netip.Addr, zones+1)
			// One cache line per zone's counter: adjacent ints would make
			// every lane write the line the other lanes write.
			delivered := make([]struct {
				n int
				_ [56]byte
			}, zones+1)
			members := 0
			for z := 1; z <= zones; z++ {
				z := z
				zr, err := n.AddNode(UnicastAddr(prefix, uint16(z), 1), root)
				if err != nil {
					b.Fatal(err)
				}
				zoneRoots[z] = zr
				groups[z] = MulticastAddrZone(prefix, uint16(z), 0xad1cbe01)
				for i := 0; i < count/zones; i++ {
					nd, err := n.AddNode(UnicastAddr(prefix, uint16(z), uint32(2+i)), zr)
					if err != nil {
						b.Fatal(err)
					}
					nd.JoinGroup(groups[z])
					// Handlers for one zone only run on that zone's lane, so
					// the per-zone counter needs no lock.
					nd.Bind(func(Message) { delivered[z].n++ })
					members++
				}
			}
			// Prime every zone's plan cache; steady-state sends are what scale.
			for z := 1; z <= zones; z++ {
				zoneRoots[z].Send(groups[z], []byte("warm"))
			}
			n.RunUntilIdle(0)
			for z := range delivered {
				delivered[z].n = 0
			}
			const batch = 4
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for j := 0; j < batch; j++ {
					for z := 1; z <= zones; z++ {
						zoneRoots[z].Send(groups[z], []byte("adv"))
					}
					n.RunUntilIdle(0)
				}
			}
			b.StopTimer()
			total := 0
			for _, d := range delivered {
				total += d.n
			}
			if total != b.N*batch*members {
				b.Fatalf("delivered %d, want %d", total, b.N*batch*members)
			}
			b.ReportMetric(float64(members), "members")
		})
	}
}
