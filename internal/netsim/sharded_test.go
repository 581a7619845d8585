package netsim

import (
	"fmt"
	"runtime"
	"testing"
	"time"
)

// stormRun is one zoned multicast-storm execution: a per-receiver arrival
// transcript (every delivery with its lane-local timestamp, source, hop count
// and payload bytes), the final network stats and the final virtual time.
// Two runs are bit-identical iff all three match.
type stormRun struct {
	transcript []string
	stats      Stats
	now        time.Duration
}

// runShardedStorm executes a fixed cross-zone multicast storm with membership
// churn on a 4-zone network with loss and jitter enabled (so the per-zone RNG
// streams are on the critical path), under the given worker bound.
func runShardedStorm(tb testing.TB, workers int) stormRun {
	tb.Helper()
	const (
		zones   = 4
		perZone = 6
	)
	n := New(Config{Zones: zones, Workers: workers, LossRate: 0.05, ProcJitter: 0.1, Seed: 42})
	defer n.Close()
	prefix := PrefixFromAddr(addr("2001:db8::1"))
	root, err := n.AddNode(UnicastAddr(prefix, 0, 0x100), nil)
	if err != nil {
		tb.Fatal(err)
	}
	group := MulticastAddr(prefix, 0xad1cbe01)

	var leaves []*Node
	for z := 0; z < zones; z++ {
		zr, err := n.AddNode(UnicastAddr(prefix, uint16(z), 0x200), root)
		if err != nil {
			tb.Fatal(err)
		}
		for i := 0; i < perZone; i++ {
			nd, err := n.AddNode(UnicastAddr(prefix, uint16(z), uint32(0x300+i)), zr)
			if err != nil {
				tb.Fatal(err)
			}
			leaves = append(leaves, nd)
		}
	}

	// One log per receiver: a node's handler only ever runs on its own lane,
	// so per-receiver appends need no locking even in parallel rounds.
	logs := make([][]string, len(leaves))
	for i, nd := range leaves {
		i, nd := i, nd
		nd.JoinGroup(group)
		nd.Bind(func(m Message) {
			logs[i] = append(logs[i], fmt.Sprintf("t=%v src=%v hops=%d payload=%s",
				nd.Now(), m.Src, m.Hops, m.Payload))
		})
	}

	// Storm: every leaf multicasts three times on a staggered schedule, and
	// every even leaf leaves and re-joins the group mid-run — from inside
	// timer callbacks, so the mutations land mid-round and exercise the
	// barrier-deferred membership path.
	for i, nd := range leaves {
		i, nd := i, nd
		for k := 0; k < 3; k++ {
			k := k
			nd.Schedule(time.Duration(i*7+k*13)*time.Millisecond, func() {
				nd.Send(group, []byte(fmt.Sprintf("m-%d-%d", i, k)))
			})
		}
		if i%2 == 0 {
			nd.Schedule(time.Duration(20+i)*time.Millisecond, func() { nd.LeaveGroup(group) })
			nd.Schedule(time.Duration(60+i)*time.Millisecond, func() { nd.JoinGroup(group) })
		}
	}

	if n.RunUntilIdle(1_000_000) == 0 {
		tb.Fatal("storm executed no events")
	}
	if st := n.Stats(); st.ShardLanes == 0 || st.ShardCausalityViolations != 0 {
		tb.Fatalf("storm recorded causality violations: %+v", st)
	}

	var transcript []string
	for i, log := range logs {
		for _, line := range log {
			transcript = append(transcript, fmt.Sprintf("rx=%v %s", leaves[i].Addr(), line))
		}
	}
	return stormRun{transcript: transcript, stats: n.Stats(), now: n.Now()}
}

func diffRuns(t *testing.T, label string, want, got stormRun) {
	t.Helper()
	if got.stats != want.stats {
		t.Errorf("%s: stats diverged:\n  want %+v\n  got  %+v", label, want.stats, got.stats)
	}
	if got.now != want.now {
		t.Errorf("%s: final time diverged: want %v, got %v", label, want.now, got.now)
	}
	if len(got.transcript) != len(want.transcript) {
		t.Fatalf("%s: transcript length diverged: want %d deliveries, got %d",
			label, len(want.transcript), len(got.transcript))
	}
	for i := range want.transcript {
		if got.transcript[i] != want.transcript[i] {
			t.Fatalf("%s: transcript diverged at delivery %d:\n  want %s\n  got  %s",
				label, i, want.transcript[i], got.transcript[i])
		}
	}
}

// TestShardedParallelMatchesSequential is the tentpole determinism assert:
// the parallel sharded schedule must be bit-identical — same deliveries, same
// per-delivery timestamps and payloads, same stats — to the sequential
// single-loop schedule of the same (topology, seed), for any worker count.
// GOMAXPROCS is forced above 1 so the parallel rounds really dispatch worker
// goroutines even on a single-core machine.
func TestShardedParallelMatchesSequential(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	seq := runShardedStorm(t, 1)
	if len(seq.transcript) == 0 {
		t.Fatal("storm delivered nothing; the scenario is not exercising the network")
	}
	// A repeat of the sequential run must reproduce itself exactly.
	diffRuns(t, "sequential repeat", seq, runShardedStorm(t, 1))
	for _, w := range []int{0, 2, 3, 8} {
		w := w
		t.Run(fmt.Sprintf("workers=%d", w), func(t *testing.T) {
			diffRuns(t, fmt.Sprintf("workers=%d vs sequential", w), seq, runShardedStorm(t, w))
		})
	}
}

// TestShardedStormRace is the zone-boundary concurrency leg: the same
// cross-zone storm with membership churn, repeated under maximum parallelism.
// Its value is under `go test -race`, where any unsynchronized cross-lane
// access in the clock or the network trips the detector.
func TestShardedStormRace(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	for rep := 0; rep < 3; rep++ {
		runShardedStorm(t, 0)
	}
}

// TestShardedFallback: one (or zero) zones run the clock on a single lane,
// which the network does not report as sharded.
func TestShardedFallback(t *testing.T) {
	for _, zones := range []int{0, 1} {
		n := New(Config{Zones: zones})
		nodes := buildLine(t, n, 2)
		var got int
		nodes[1].Bind(func(m Message) { got++ })
		nodes[0].Send(nodes[1].Addr(), []byte("x"))
		n.RunUntilIdle(0)
		if got != 1 {
			t.Fatalf("Zones=%d: delivered %d messages, want 1", zones, got)
		}
		if st := n.Stats(); st.ShardLanes != 0 || st.ShardSummary() != "" {
			t.Fatalf("Zones=%d: network reports shard telemetry %+v (%q); want none on one lane", zones, st, st.ShardSummary())
		}
		n.Close()
	}
}

// TestShardedLaneLocalNow: inside a round, a handler's node-local clock reads
// the lane's event timestamp while the global barrier clock still holds the
// previous window's value.
func TestShardedLaneLocalNow(t *testing.T) {
	n := New(Config{Zones: 2, Workers: 1})
	defer n.Close()
	prefix := PrefixFromAddr(addr("2001:db8::1"))
	root, _ := n.AddNode(UnicastAddr(prefix, 0, 0x100), nil)
	nd, err := n.AddNode(UnicastAddr(prefix, 1, 0x200), root)
	if err != nil {
		t.Fatal(err)
	}
	if nd.Zone() != 1 {
		t.Fatalf("Zone() = %d, want 1", nd.Zone())
	}
	var lane, global time.Duration
	nd.Schedule(5*time.Millisecond, func() {
		lane = nd.Now()
		global = n.Now()
	})
	n.RunUntilIdle(0)
	if lane != 5*time.Millisecond {
		t.Fatalf("lane-local Now inside handler = %v, want 5ms", lane)
	}
	if global > lane {
		t.Fatalf("global Now %v ran ahead of the executing lane %v", global, lane)
	}
	if n.Now() != 5*time.Millisecond {
		t.Fatalf("post-barrier global Now = %v, want 5ms", n.Now())
	}
}

// TestShardedMembershipMidRound: a JoinGroup issued from inside a handler is
// deferred to the barrier and takes effect for later windows.
func TestShardedMembershipMidRound(t *testing.T) {
	n := New(Config{Zones: 2, Workers: 1})
	defer n.Close()
	prefix := PrefixFromAddr(addr("2001:db8::1"))
	root, _ := n.AddNode(UnicastAddr(prefix, 0, 0x100), nil)
	a, _ := n.AddNode(UnicastAddr(prefix, 0, 0x200), root)
	b, err := n.AddNode(UnicastAddr(prefix, 1, 0x300), root)
	if err != nil {
		t.Fatal(err)
	}
	group := MulticastAddr(prefix, 0xad1cbe01)
	var got int
	b.Bind(func(m Message) { got++ })
	b.Schedule(time.Millisecond, func() { b.JoinGroup(group) })
	a.Schedule(50*time.Millisecond, func() { a.Send(group, []byte("late")) })
	n.RunUntilIdle(0)
	if got != 1 {
		t.Fatalf("deliveries after mid-round join = %d, want 1", got)
	}
	b.Schedule(time.Millisecond, func() { b.LeaveGroup(group) })
	a.Schedule(50*time.Millisecond, func() { a.Send(group, []byte("gone")) })
	n.RunUntilIdle(0)
	if got != 1 {
		t.Fatalf("deliveries after mid-round leave = %d, want still 1", got)
	}
}

// TestShardedRunUntilSemantics: RunUntil includes events at the deadline and
// parks the clock exactly there; RunUntilQuiesced reports drain state and
// leaves the clock on the last event when it drains early.
func TestShardedRunUntilSemantics(t *testing.T) {
	n := New(Config{Zones: 2, Workers: 1})
	defer n.Close()
	prefix := PrefixFromAddr(addr("2001:db8::1"))
	root, _ := n.AddNode(UnicastAddr(prefix, 0, 0x100), nil)
	nd, _ := n.AddNode(UnicastAddr(prefix, 1, 0x200), root)
	var fired []time.Duration
	for _, at := range []time.Duration{10 * time.Millisecond, 30 * time.Millisecond} {
		at := at
		nd.Schedule(at, func() { fired = append(fired, at) })
	}
	if steps := n.RunUntil(10 * time.Millisecond); steps != 1 {
		t.Fatalf("RunUntil(10ms) executed %d events, want 1 (deadline inclusive)", steps)
	}
	if n.Now() != 10*time.Millisecond {
		t.Fatalf("after RunUntil(10ms): Now = %v", n.Now())
	}
	if n.RunUntilQuiesced(20 * time.Millisecond) {
		t.Fatal("RunUntilQuiesced(20ms) reported drained with an event still queued at 30ms")
	}
	if n.Now() != 20*time.Millisecond {
		t.Fatalf("after failed quiesce: Now = %v, want 20ms", n.Now())
	}
	if !n.RunUntilQuiesced(time.Second) {
		t.Fatal("RunUntilQuiesced(1s) did not drain")
	}
	if n.Now() != 30*time.Millisecond {
		t.Fatalf("after drain: Now = %v, want 30ms (last event)", n.Now())
	}
	if len(fired) != 2 {
		t.Fatalf("fired %d events, want 2", len(fired))
	}
}

// TestShardedQueueCapBounded: repeated storms must not grow the lane heaps
// without bound (pooled events and append-in-place outboxes).
func TestShardedQueueCapBounded(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	const (
		zones   = 4
		perZone = 4
	)
	n := New(Config{Zones: zones, Workers: 0})
	defer n.Close()
	prefix := PrefixFromAddr(addr("2001:db8::1"))
	root, _ := n.AddNode(UnicastAddr(prefix, 0, 0x100), nil)
	group := MulticastAddr(prefix, 0xad1cbe01)
	var leaves []*Node
	for z := 0; z < zones; z++ {
		zr, _ := n.AddNode(UnicastAddr(prefix, uint16(z), 0x200), root)
		for i := 0; i < perZone; i++ {
			nd, _ := n.AddNode(UnicastAddr(prefix, uint16(z), uint32(0x300+i)), zr)
			nd.JoinGroup(group)
			nd.Bind(func(Message) {})
			leaves = append(leaves, nd)
		}
	}
	var capAfterWarm int
	for round := 0; round < 8; round++ {
		for _, nd := range leaves {
			nd := nd
			nd.Schedule(time.Millisecond, func() { nd.Send(group, []byte("storm")) })
		}
		n.RunUntilIdle(0)
		if round == 3 {
			capAfterWarm = n.queueCap()
		}
	}
	if got := n.queueCap(); capAfterWarm > 0 && got > capAfterWarm*2 {
		t.Fatalf("lane heap capacity kept growing: %d after warmup, %d after 8 rounds", capAfterWarm, got)
	}
}

// TestShardedCrossLaneAllocFree asserts the sharded hot path allocates
// nothing once warm: a unicast ping from zone 0 to zone 1 and the reply,
// which is emitted mid-round and so crosses lanes through the outbox and the
// barrier merge. An outbox dropped at an idle barrier regrows on the next
// round's append, which shows up here as allocations.
func TestShardedCrossLaneAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under the race detector")
	}
	n := New(Config{Zones: 2, Workers: 1})
	defer n.Close()
	prefix := PrefixFromAddr(addr("2001:db8::1"))
	root, err := n.AddNode(UnicastAddr(prefix, 0, 1), nil)
	if err != nil {
		t.Fatal(err)
	}
	far, err := n.AddNode(UnicastAddr(prefix, 1, 2), root)
	if err != nil {
		t.Fatal(err)
	}
	if root.lane == far.lane {
		t.Fatalf("both nodes on lane %d; the test needs a cross-lane pair", root.lane)
	}
	replies := 0
	far.Bind(func(m Message) { far.Send(m.Src, m.Payload) })
	root.Bind(func(Message) { replies++ })
	payload := []byte("ping")
	pingPong := func() {
		root.Send(far.Addr(), payload)
		n.RunUntilIdle(0)
	}
	for i := 0; i < 8; i++ {
		pingPong()
	}
	allocs := testing.AllocsPerRun(200, pingPong)
	if replies != 8+201 {
		t.Fatalf("got %d replies, want %d", replies, 8+201)
	}
	if st := n.Stats(); st.ShardCrossMerged == 0 {
		t.Fatal("no event crossed lanes through the outbox")
	}
	if allocs != 0 {
		t.Fatalf("cross-lane ping-pong allocates %v per round trip, want 0", allocs)
	}
}
