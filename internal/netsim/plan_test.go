package netsim

import (
	"math/rand"
	"net/netip"
	"sync"
	"testing"

	"micropnp/internal/hw"
)

// testTree builds an n-node k-ary tree (index 0 is the root).
func testTree(t *testing.T, n *Network, count, arity int) []*Node {
	t.Helper()
	nodes := make([]*Node, count)
	for i := 0; i < count; i++ {
		var parent *Node
		if i > 0 {
			parent = nodes[(i-1)/arity]
		}
		var bytes [16]byte
		bytes[0], bytes[1] = 0x20, 0x01
		bytes[12] = byte(i >> 24)
		bytes[13] = byte(i >> 16)
		bytes[14] = byte(i >> 8)
		bytes[15] = byte(i)
		nd, err := n.AddNode(netip.AddrFrom16(bytes), parent)
		if err != nil {
			t.Fatal(err)
		}
		nodes[i] = nd
	}
	return nodes
}

// planTargets reduces a plan to comparable state: member→hops (delivery
// order is deterministic but splice-history-dependent, so equivalence is on
// sets).
func planTargets(p *mcastPlan) map[*Node]int {
	targets := map[*Node]int{}
	for _, t := range p.targets {
		targets[t.node] = int(t.hops)
	}
	return targets
}

// sendTransmissions sends one datagram from src to the group and returns
// what it added to the network's transmission count, then drains the
// deliveries.
func sendTransmissions(n *Network, src *Node, group netip.Addr) int {
	before := n.Stats().Transmissions
	src.Send(group, []byte("tx"))
	got := n.Stats().Transmissions - before
	n.RunUntilIdle(0)
	return got
}

// refTransmissions is the brute-force SMRF transmission count of one send
// from src to the members: the size of the union of refRoute's edges to
// every member other than src.
func refTransmissions(src *Node, members []*Node) int {
	union := map[[2]*Node]bool{}
	for _, m := range members {
		if m != src {
			_, edges := refRoute(src, m)
			for _, e := range edges {
				union[e] = true
			}
		}
	}
	return len(union)
}

// memberList returns the group's members in node order.
func memberList(nodes []*Node, group netip.Addr) []*Node {
	var out []*Node
	for _, nd := range nodes {
		if nd.InGroup(group) {
			out = append(out, nd)
		}
	}
	return out
}

// TestIncrementalPlanMatchesRebuild drives randomized join/leave churn
// against several source nodes' cached plans and checks, after every
// operation, that the incrementally maintained plan is equivalent to a
// rebuild-from-scratch reference (same targets, same hop counts) and that a
// send's transmission count is the reference route union's size. The
// sources join and leave too, so each is checked inside and outside the
// group. The group is then emptied and refilled: its cached plans survive,
// and the joiners append to them in join order.
func TestIncrementalPlanMatchesRebuild(t *testing.T) {
	rng := rand.New(rand.NewSource(0x5324))
	n := New(Config{})
	nodes := testTree(t, n, 120, 3)
	group := MulticastAddr(PrefixFromAddr(nodes[0].Addr()), 0xad1cbe01)
	srcs := []*Node{nodes[0], nodes[17], nodes[119]}

	// Start from a random membership and warm every source's plan.
	for _, nd := range nodes {
		if rng.Intn(2) == 0 {
			nd.JoinGroup(group)
		}
	}
	warm := func() {
		n.topoMu.RLock()
		defer n.topoMu.RUnlock()
		for _, src := range srcs {
			n.multicastPlan(src, group)
		}
	}
	warm()

	check := func(step int) {
		n.topoMu.RLock()
		for _, src := range srcs {
			gt := planTargets(n.multicastPlan(src, group))
			wt := planTargets(n.buildPlan(src, group))
			if len(gt) != len(wt) {
				t.Fatalf("step %d src %v: %d targets, rebuild has %d", step, src.Addr(), len(gt), len(wt))
			}
			for nd, hops := range wt {
				if gt[nd] != hops {
					t.Fatalf("step %d src %v: member %v hops %d, rebuild says %d", step, src.Addr(), nd.Addr(), gt[nd], hops)
				}
			}
		}
		n.topoMu.RUnlock()
		members := memberList(nodes, group)
		for _, src := range srcs {
			if got, want := sendTransmissions(n, src, group), refTransmissions(src, members); got != want {
				t.Fatalf("step %d src %v (member %v): %d transmissions, reference %d", step, src.Addr(), src.InGroup(group), got, want)
			}
		}
	}

	for step := 0; step < 2000; step++ {
		nd := nodes[rng.Intn(len(nodes))]
		if nd.InGroup(group) {
			nd.LeaveGroup(group)
		} else {
			nd.JoinGroup(group)
		}
		if step%97 == 0 {
			warm() // re-warm in case a plan was never built for a new src
		}
		check(step)
	}

	// Empty the group: the cached plans stay, with no targets.
	n.topoMu.RLock()
	cached := map[*Node]*mcastPlan{}
	for _, src := range srcs {
		cached[src] = n.multicastPlan(src, group)
	}
	n.topoMu.RUnlock()
	for _, nd := range memberList(nodes, group) {
		nd.LeaveGroup(group)
	}
	check(-1)
	// Refill in a random order: each joiner appends to every cached plan.
	order := rng.Perm(len(nodes))
	for i, k := range order[:len(order)/2] {
		nodes[k].JoinGroup(group)
		check(-2 - i)
	}
	n.topoMu.RLock()
	for _, src := range srcs {
		plan := n.multicastPlan(src, group)
		if plan != cached[src] {
			t.Fatalf("src %v: emptying the group dropped its cached plan", src.Addr())
		}
		var want []*Node
		for _, k := range order[:len(order)/2] {
			if nodes[k] != src {
				want = append(want, nodes[k])
			}
		}
		if len(plan.targets) != len(want) {
			t.Fatalf("src %v: refilled plan has %d targets, want %d", src.Addr(), len(plan.targets), len(want))
		}
		for i, tg := range plan.targets {
			if tg.node != want[i] {
				t.Fatalf("src %v: refilled target %d is %v, join order says %v", src.Addr(), i, tg.node.Addr(), want[i].Addr())
			}
		}
	}
	n.topoMu.RUnlock()

	// The maintained plan must also still route correctly end to end.
	var delivered int
	var mu sync.Mutex
	members := memberList(nodes, group)
	for _, nd := range members {
		nd.Bind(func(Message) { mu.Lock(); delivered++; mu.Unlock() })
	}
	want := len(members)
	if srcs[0].InGroup(group) {
		want-- // the source does not deliver to itself
	}
	srcs[0].Send(group, []byte("post-churn"))
	n.RunUntilIdle(0)
	if delivered != want {
		t.Fatalf("post-churn send delivered %d, want %d", delivered, want)
	}
}

// TestPlanChurnTransmissionsMatch checks observed transmission accounting
// after churn: leave+join cycles must leave the per-send transmission
// increment exactly where a cold network built at the final membership puts
// it.
func TestPlanChurnTransmissionsMatch(t *testing.T) {
	n := New(Config{})
	nodes := testTree(t, n, 60, 2)
	group := MulticastAddr(PrefixFromAddr(nodes[0].Addr()), 0xed3f0ac1)
	for _, nd := range nodes[1:] {
		nd.JoinGroup(group)
		nd.Bind(func(Message) {})
	}
	send := func() int {
		before := n.Stats().Transmissions
		nodes[0].Send(group, []byte("x"))
		n.RunUntilIdle(0)
		return n.Stats().Transmissions - before
	}
	warmTx := send() // builds the plan

	// Churn half the members, then compare against a cold network built at
	// the final membership.
	for i := 1; i < len(nodes); i += 2 {
		nodes[i].LeaveGroup(group)
	}
	gotTx := send()

	cold := New(Config{})
	coldNodes := testTree(t, cold, 60, 2)
	for i, nd := range coldNodes[1:] {
		if (i+1)%2 == 0 { // the members that stayed
			nd.JoinGroup(group)
			nd.Bind(func(Message) {})
		}
	}
	before := cold.Stats().Transmissions
	coldNodes[0].Send(group, []byte("x"))
	cold.RunUntilIdle(0)
	wantTx := cold.Stats().Transmissions - before
	if gotTx != wantTx {
		t.Fatalf("transmissions after churn = %d, cold rebuild = %d (warm full group was %d)", gotTx, wantTx, warmTx)
	}
	if gotTx >= warmTx {
		t.Fatalf("halving the group must shrink the route union: %d -> %d", warmTx, gotTx)
	}
}

// TestStripedRouteLocksRace exercises the per-group plan stripes under -race:
// concurrent senders warming plans for many groups and concurrent join/leave
// churn splicing them, across both clock modes.
func TestStripedRouteLocksRace(t *testing.T) {
	for _, realtime := range []bool{false, true} {
		name := "virtual"
		if realtime {
			name = "realtime"
		}
		t.Run(name, func(t *testing.T) {
			n := New(Config{Realtime: realtime, TimeScale: 10_000})
			defer n.Close()
			nodes := testTree(t, n, 200, 4)
			prefix := PrefixFromAddr(nodes[0].Addr())
			const groups = 8
			addrs := make([]netip.Addr, groups)
			for g := range addrs {
				addrs[g] = MulticastAddr(prefix, hw.DeviceID(0xad1c0000+uint32(g)))
			}
			for i, nd := range nodes {
				nd.Bind(func(Message) {})
				nd.JoinGroup(addrs[i%groups])
			}
			var wg sync.WaitGroup
			for w := 0; w < 8; w++ {
				w := w
				wg.Add(1)
				go func() {
					defer wg.Done()
					rng := rand.New(rand.NewSource(int64(w)))
					for i := 0; i < 400; i++ {
						nd := nodes[rng.Intn(len(nodes))]
						g := addrs[rng.Intn(groups)]
						switch rng.Intn(4) {
						case 0:
							nd.JoinGroup(g)
						case 1:
							nd.LeaveGroup(g)
						default:
							nd.Send(g, []byte("race"))
						}
					}
				}()
			}
			wg.Wait()
			if !realtime {
				n.RunUntilIdle(0)
			}
		})
	}
}

// refRoute is the brute-force route reference: it collects src's ancestor
// set, finds the first ancestor of dst in it, and lists the route's directed
// edges (up from src, then down to dst). Disjoint trees route over one
// backbone edge between their roots.
func refRoute(src, dst *Node) (hops int, edges [][2]*Node) {
	anc := map[*Node]bool{}
	for x := src; x != nil; x = x.parent {
		anc[x] = true
	}
	var lca *Node
	for x := dst; x != nil; x = x.parent {
		if anc[x] {
			lca = x
			break
		}
	}
	x := src
	for ; x != lca && x.parent != nil; x = x.parent {
		edges = append(edges, [2]*Node{x, x.parent})
	}
	y := dst
	for ; y != lca && y.parent != nil; y = y.parent {
		edges = append(edges, [2]*Node{y.parent, y})
	}
	if lca == nil {
		edges = append(edges, [2]*Node{x, y})
	}
	return len(edges), edges
}

// randomForest adds count nodes, each either a new root (a backbone node)
// or the child of a random earlier node.
func randomForest(t *testing.T, n *Network, rng *rand.Rand, count int) []*Node {
	t.Helper()
	nodes := make([]*Node, 0, count)
	for i := 0; i < count; i++ {
		var parent *Node
		if i > 0 && rng.Intn(8) != 0 {
			parent = nodes[rng.Intn(len(nodes))]
		}
		var b [16]byte
		b[0], b[1] = 0x20, 0x01
		b[14], b[15] = byte(i>>8), byte(i)
		nd, err := n.AddNode(netip.AddrFrom16(b), parent)
		if err != nil {
			t.Fatal(err)
		}
		nodes = append(nodes, nd)
	}
	return nodes
}

// TestRoutesMatchBruteForce checks the lowest-common-ancestor routing
// against refRoute on seeded random forests with several disjoint roots:
// treeDistance for every node pair, and for cached plans under random
// membership churn, every target's hop count and each send's transmission
// count against the reference route union (backbone edges included). One
// source is a root, so its chain is only itself.
func TestRoutesMatchBruteForce(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := New(Config{})
		nodes := randomForest(t, n, rng, 60+rng.Intn(60))
		disjoint := 0
		for _, a := range nodes {
			for _, b := range nodes {
				want, edges := refRoute(a, b)
				if got := treeDistance(a, b); got != want {
					t.Fatalf("seed %d: treeDistance(%v, %v) = %d, reference %d", seed, a.addr, b.addr, got, want)
				}
				if meet(a, b) == nil {
					disjoint++
					if e := edges[len(edges)-1]; e[0].parent != nil || e[1].parent != nil {
						t.Fatalf("seed %d: disjoint route %v -> %v does not cross the backbone", seed, a.addr, b.addr)
					}
				}
			}
		}
		if disjoint == 0 {
			t.Fatalf("seed %d: forest has a single tree; the backbone case went untested", seed)
		}

		group := MulticastAddr(PrefixFromAddr(nodes[0].Addr()), 0xad1cbe01)
		srcs := []*Node{nodes[0], nodes[rng.Intn(len(nodes))], nodes[len(nodes)-1]}
		check := func(step int) {
			n.topoMu.RLock()
			for _, src := range srcs {
				for _, tg := range n.multicastPlan(src, group).targets {
					if want, _ := refRoute(src, tg.node); int(tg.hops) != want {
						t.Fatalf("seed %d step %d src %v: target %v hops %d, reference %d", seed, step, src.addr, tg.node.addr, tg.hops, want)
					}
				}
			}
			n.topoMu.RUnlock()
			members := memberList(nodes, group)
			for _, src := range srcs {
				if got, want := sendTransmissions(n, src, group), refTransmissions(src, members); got != want {
					t.Fatalf("seed %d step %d src %v (member %v): %d transmissions, reference %d", seed, step, src.addr, src.InGroup(group), got, want)
				}
			}
		}
		for step := 0; step < 300; step++ {
			nd := nodes[rng.Intn(len(nodes))]
			if nd.InGroup(group) {
				nd.LeaveGroup(group)
			} else {
				nd.JoinGroup(group)
			}
			check(step)
		}
	}
}
