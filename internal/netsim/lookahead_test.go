package netsim

import (
	"math/rand"
	"testing"
	"time"
)

// bruteLookahead computes the all-pairs minimum cross-lane tree distance by
// exhaustive enumeration — the specification the incremental matrix must
// match exactly.
func bruteLookahead(nodes []*Node, lanes int) []int32 {
	min := make([]int32, lanes*lanes)
	for i := range min {
		min[i] = -1
	}
	for x, a := range nodes {
		for _, b := range nodes[x+1:] {
			i, j := int(a.lane), int(b.lane)
			if i == j {
				continue
			}
			d := int32(treeDistance(a, b))
			if cur := min[i*lanes+j]; cur < 0 || d < cur {
				min[i*lanes+j] = d
				min[j*lanes+i] = d
			}
		}
	}
	return min
}

// TestLookaheadMatrixMatchesBruteForce grows randomized multi-root
// topologies — random parents, random zones folding onto a smaller lane
// count — and after every single AddNode checks the incrementally maintained
// matrix against brute force, so both the LCA walk (same-tree pairs) and the
// two-best distinct-root tracking (cross-tree backbone pairs) are validated
// under every insertion order the generator produces.
func TestLookaheadMatrixMatchesBruteForce(t *testing.T) {
	const (
		trials   = 12
		nodesPer = 40
		lanes    = 5
	)
	prefix := PrefixFromAddr(addr("2001:db8::1"))
	for trial := 0; trial < trials; trial++ {
		rng := rand.New(rand.NewSource(int64(1000 + trial)))
		n := New(Config{Zones: lanes, Workers: 1, Seed: int64(trial)})
		var nodes []*Node
		for i := 0; i < nodesPer; i++ {
			var parent *Node
			if len(nodes) > 0 && rng.Float64() > 0.2 {
				parent = nodes[rng.Intn(len(nodes))]
			}
			zone := uint16(rng.Intn(2 * lanes)) // exercise zone→lane folding
			nd, err := n.AddNode(UnicastAddr(prefix, zone, uint32(0x100+i)), parent)
			if err != nil {
				t.Fatal(err)
			}
			nodes = append(nodes, nd)
			want := bruteLookahead(nodes, lanes)
			for li := 0; li < lanes; li++ {
				for lj := 0; lj < lanes; lj++ {
					if li == lj {
						continue
					}
					if got := int32(n.lookahead.pairHops(li, lj)); got != want[li*lanes+lj] {
						t.Fatalf("trial %d after node %d: minHops(%d,%d) = %d, brute force %d",
							trial, i, li, lj, got, want[li*lanes+lj])
					}
				}
			}
		}
		n.Close()
	}
}

// TestLookaheadCausalityRandomTraffic runs random cross-lane unicast traffic
// over randomized topologies with loss and jitter under full parallelism and
// asserts the barrier-time causality checker never fires: no lane ever
// executed past an inbound cross-lane event's timestamp.
func TestLookaheadCausalityRandomTraffic(t *testing.T) {
	const (
		trials   = 6
		nodesPer = 24
		lanes    = 4
		sends    = 120
	)
	prefix := PrefixFromAddr(addr("2001:db8::1"))
	for trial := 0; trial < trials; trial++ {
		rng := rand.New(rand.NewSource(int64(2000 + trial)))
		n := New(Config{Zones: lanes, Workers: 0, LossRate: 0.05, ProcJitter: 0.15, Seed: int64(trial)})
		var nodes []*Node
		for i := 0; i < nodesPer; i++ {
			var parent *Node
			if len(nodes) > 0 && rng.Float64() > 0.15 {
				parent = nodes[rng.Intn(len(nodes))]
			}
			nd, err := n.AddNode(UnicastAddr(prefix, uint16(rng.Intn(2*lanes)), uint32(0x100+i)), parent)
			if err != nil {
				t.Fatal(err)
			}
			// Every node echoes once per distinct payload family, so cross-lane
			// deliveries spawn further cross-lane work mid-round.
			nd.Bind(func(m Message) {
				if len(m.Payload) > 0 && m.Payload[0] == 'p' {
					peer := nodes[int(m.Payload[1])%len(nodes)]
					nd.Send(peer.Addr(), []byte{'q', m.Payload[1]})
				}
			})
			nodes = append(nodes, nd)
		}
		for k := 0; k < sends; k++ {
			src := nodes[rng.Intn(len(nodes))]
			dst := nodes[rng.Intn(len(nodes))]
			at := time.Duration(rng.Intn(500)) * time.Millisecond
			payload := []byte{'p', byte(rng.Intn(256))}
			src.Schedule(at, func() { src.Send(dst.Addr(), payload) })
		}
		if n.RunUntilIdle(10_000_000) == 0 {
			t.Fatal("no events executed")
		}
		ss := n.Stats()
		if ss.ShardLanes == 0 {
			t.Fatal("network not sharded")
		}
		if ss.ShardCausalityViolations != 0 {
			t.Fatalf("trial %d: %d causality violations (stats %+v)", trial, ss.ShardCausalityViolations, ss)
		}
		n.Close()
	}
}

// deepChainRounds runs four deep per-zone cascades (one ping-pong message
// walking a 30-node chain, per lane) and returns the network's counters.
func deepChainRounds(tb testing.TB) Stats {
	tb.Helper()
	const (
		lanes   = 5 // lane 0 holds only the idle root
		depth   = 30
		bounces = 8
	)
	n := New(Config{Zones: lanes, Workers: 1, Seed: 7})
	defer n.Close()
	prefix := PrefixFromAddr(addr("2001:db8::1"))
	root, err := n.AddNode(UnicastAddr(prefix, 0, 0x100), nil)
	if err != nil {
		tb.Fatal(err)
	}
	for z := 1; z < lanes; z++ {
		chain := make([]*Node, depth)
		parent := root
		for i := range chain {
			nd, err := n.AddNode(UnicastAddr(prefix, uint16(z), uint32(0x200+i)), parent)
			if err != nil {
				tb.Fatal(err)
			}
			chain[i] = nd
			parent = nd
		}
		left := bounces
		for i, nd := range chain {
			i, nd := i, nd
			nd.Bind(func(m Message) {
				switch {
				case string(m.Payload) == "down" && i < depth-1:
					nd.Send(chain[i+1].Addr(), m.Payload)
				case string(m.Payload) == "down":
					nd.Send(chain[i-1].Addr(), []byte("up"))
				case i > 0:
					nd.Send(chain[i-1].Addr(), m.Payload)
				default:
					if left--; left > 0 {
						nd.Send(chain[i+1].Addr(), []byte("down"))
					}
				}
			})
		}
		head := chain[0]
		head.Schedule(time.Duration(z)*time.Millisecond, func() {
			head.Send(chain[1].Addr(), []byte("down"))
		})
	}
	if n.RunUntilIdle(10_000_000) == 0 {
		tb.Fatal("cascade executed no events")
	}
	return n.Stats()
}

// TestLookaheadRoundCountDeepChains pins the per-pair matrix's barrier
// telemetry on sparse deep-chain topologies. The min-plus closure bounds any
// lane's window at two lane-graph hops (an idle adjacent lane can always
// relay causality at one quantum each way), so the cascade needs half the
// rounds a one-hop window per round would: 233 rounds against 465, net of
// the single shared timer-prologue round. Any change to the window
// computation moves these numbers.
func TestLookaheadRoundCountDeepChains(t *testing.T) {
	p := deepChainRounds(t)
	t.Logf("pair: %+v", p)
	if p.ShardLanes != 5 || p.ShardRounds != 233 || p.ShardEvents != 1860 || p.ShardLaneRounds != 932 ||
		p.ShardCrossMerged != 0 || p.ShardCausalityViolations != 0 {
		t.Fatalf("deep-chain telemetry = %+v, want 5 lanes, 233 rounds, 1860 events, 932 lane rounds, no merges or violations", p)
	}
	const line = "sharded clock: 5 lanes, 233 rounds, 1860 events (8.0 events/round, 80% lane occupancy), 0 cross-lane merges, 0 causality violations"
	if got := p.ShardSummary(); got != line {
		t.Fatalf("ShardSummary() = %q, want %q", got, line)
	}
}

// TestLookaheadSnapshotFallback: pairs the matrix has no node pair for yet
// snapshot to the conservative one-hop global quantum.
func TestLookaheadSnapshotFallback(t *testing.T) {
	la := newLookahead(3)
	q := 10 * time.Millisecond
	dst := make([]int64, 9)
	la.snapshotNs(q, dst)
	for i, v := range dst {
		if i/3 != i%3 && v != int64(q) {
			t.Fatalf("unknown pair %d,%d snapshot %d, want the global quantum %d", i/3, i%3, v, q)
		}
	}
}
