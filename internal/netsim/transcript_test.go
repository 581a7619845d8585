package netsim

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// arrivalTranscript runs a lossy 8-zone multicast workload and returns every
// handler call as one line — (lane time, receiver, payload) — grouped by lane
// in each lane's execution order, followed by the final stats and time.
//
// The workload is built to pin the order in which same-instant arrivals run:
// members leave and re-join between sends, so the plan splices scatter
// receivers with equal hop counts across the target list; every multicast
// receiver reschedules itself at zero delay (an event at the very instant of
// the arrivals still queued behind it) and answers by unicast, which crosses
// lanes back to the sender.
func arrivalTranscript(tb testing.TB, workers int, jitter float64) string {
	tb.Helper()
	const zones = 8
	n := New(Config{Zones: zones, Workers: workers, LossRate: 0.05, ProcJitter: jitter, Seed: 7})
	defer n.Close()
	prefix := PrefixFromAddr(addr("2001:db8::1"))
	root, err := n.AddNode(UnicastAddr(prefix, 0, 0x100), nil)
	if err != nil {
		tb.Fatal(err)
	}
	group := MulticastAddr(prefix, 0xad1cbe01)

	// Per zone: a zone root, three children and two grandchildren per child.
	add := func(z uint16, host uint32, parent *Node) *Node {
		nd, err := n.AddNode(UnicastAddr(prefix, z, host), parent)
		if err != nil {
			tb.Fatal(err)
		}
		return nd
	}
	var members []*Node
	for z := uint16(0); z < zones; z++ {
		zr := add(z, 0x200, root)
		for i := uint32(0); i < 3; i++ {
			c := add(z, 0x300+i, zr)
			members = append(members, c, add(z, 0x400+2*i, c), add(z, 0x401+2*i, c))
		}
	}

	// One log per lane: a lane's handlers run one at a time on whichever
	// worker claimed the lane, and rounds are separated by the barrier.
	logs := make([][]string, zones)
	logf := func(nd *Node, format string, args ...any) {
		logs[nd.lane] = append(logs[nd.lane],
			fmt.Sprintf("t=%v rx=%v ", nd.Now(), nd.Addr())+fmt.Sprintf(format, args...))
	}
	handler := func(nd *Node) Handler {
		return func(m Message) {
			p := string(m.Payload)
			logf(nd, "src=%v hops=%d %s", m.Src, m.Hops, p)
			if !strings.HasPrefix(p, "m") {
				return
			}
			src := m.Src
			nd.Schedule(0, func() {
				logf(nd, "resched %s", p)
				nd.Send(src, []byte("r:"+p+"@"+nd.Addr().String()))
			})
		}
	}
	root.Bind(handler(root))
	for _, nd := range members {
		nd.Bind(handler(nd))
		nd.JoinGroup(group)
	}

	rng := rand.New(rand.NewSource(3))
	out := make([]bool, len(members))
	for phase := 0; phase < 6; phase++ {
		// Churn between sends: flip a fifth of the members, so re-joined
		// members append to the end of every cached plan and departures
		// swap the plan's last target into the hole.
		for i := range members {
			if rng.Intn(5) != 0 {
				continue
			}
			if out[i] {
				members[i].JoinGroup(group)
			} else {
				members[i].LeaveGroup(group)
			}
			out[i] = !out[i]
		}
		// Sends from inside rounds (timers on the sender's lane, so copies
		// for other lanes go through the outboxes) and one from outside any
		// round (straight into the destination heaps).
		for k := 0; k < 4; k++ {
			src := members[rng.Intn(len(members))]
			payload := []byte(fmt.Sprintf("m%d.%d", phase, k))
			src.Schedule(time.Duration(rng.Intn(3))*time.Millisecond, func() {
				src.Send(group, payload)
			})
		}
		root.Send(group, []byte(fmt.Sprintf("m%d.root", phase)))
		n.RunUntilIdle(0)
	}
	st := n.Stats()
	if st.ShardLanes == 0 || st.ShardCausalityViolations != 0 {
		tb.Fatalf("causality violations: %+v", st)
	}

	var b strings.Builder
	for lane, log := range logs {
		fmt.Fprintf(&b, "lane %d: %d calls\n", lane, len(log))
		for _, line := range log {
			b.WriteString(line)
			b.WriteByte('\n')
		}
	}
	// The digests predate the shard fields of Stats: the line keeps the six
	// network counters in the format %+v gave them.
	fmt.Fprintf(&b, "stats {UnicastSent:%d MulticastSent:%d Transmissions:%d Delivered:%d Lost:%d NoHandler:%d} now %v\n",
		st.UnicastSent, st.MulticastSent, st.Transmissions, st.Delivered, st.Lost, st.NoHandler, n.Now())
	return b.String()
}

// TestMulticastArrivalTranscript pins the exact order of every handler call
// in a lossy zoned multicast workload, with and without jitter, at several
// worker counts. The digests were taken from the per-receiver delivery
// schedule (one event per multicast copy); any change to how arrivals are
// queued must reproduce them bit for bit.
func TestMulticastArrivalTranscript(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	for _, tc := range []struct {
		jitter float64
		digest string
	}{
		{0, "63115bf0c3233e256cd5baf91cb96cec8abfc24d82e4dc97e774778f80cdc84d"},
		{0.04, "6fafde0f6e04ec1ff2c6cd717e6f080a0969b86e23896a17d6c37403a3b223c2"},
	} {
		for _, w := range []int{1, 2, 8} {
			t.Run(fmt.Sprintf("jitter=%v/workers=%d", tc.jitter, w), func(t *testing.T) {
				tr := arrivalTranscript(t, w, tc.jitter)
				sum := sha256.Sum256([]byte(tr))
				if got := hex.EncodeToString(sum[:]); got != tc.digest {
					t.Errorf("transcript digest %s, want %s\n%s", got, tc.digest, tr[:min(len(tr), 2000)])
				}
			})
		}
	}
}

// TestMulticastStepsPerReceiver: on an unzoned network each multicast
// receiver is one Step, even when all of them arrive at the same instant, so
// closed-loop drivers still re-check their conditions after every arrival.
func TestMulticastStepsPerReceiver(t *testing.T) {
	n := New(Config{})
	root, _ := n.AddNode(addr("2001:db8::1"), nil)
	group := MulticastAddr(PrefixFromAddr(root.Addr()), 0xad1cbe01)
	var got []string
	for _, s := range []string{"2001:db8::2", "2001:db8::3", "2001:db8::4"} {
		nd, _ := n.AddNode(addr(s), root)
		nd.JoinGroup(group)
		nd.Bind(func(Message) { got = append(got, nd.Addr().String()) })
	}
	root.Send(group, []byte("adv"))
	for steps := 1; steps <= 3; steps++ {
		if !n.Step() {
			t.Fatalf("Step %d ran nothing", steps)
		}
		if len(got) != steps {
			t.Fatalf("after Step %d: %d handler calls, want %d", steps, len(got), steps)
		}
	}
	if n.Step() {
		t.Fatalf("a fourth Step ran an event; calls %v", got)
	}
	if want := "2001:db8::2 2001:db8::3 2001:db8::4"; strings.Join(got, " ") != want {
		t.Fatalf("arrival order %v, want %s", got, want)
	}
}

// TestShardedEventsCountHandlerCalls: on a zoned network Stats.ShardEvents
// counts handler calls — one per multicast receiver, however the arrivals
// are queued — and the fan-out never violates causality.
func TestShardedEventsCountHandlerCalls(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	for _, w := range []int{1, 4} {
		n := New(Config{Zones: 4, Workers: w, LossRate: 0.05, Seed: 11})
		prefix := PrefixFromAddr(addr("2001:db8::1"))
		root, _ := n.AddNode(UnicastAddr(prefix, 0, 0x100), nil)
		group := MulticastAddr(prefix, 0xad1cbe01)
		var calls atomic.Int64
		root.Bind(func(Message) { calls.Add(1) })
		for z := uint16(0); z < 4; z++ {
			zr, _ := n.AddNode(UnicastAddr(prefix, z, 0x200), root)
			for i := uint32(0); i < 5; i++ {
				nd, _ := n.AddNode(UnicastAddr(prefix, z, 0x300+i), zr)
				nd.JoinGroup(group)
				nd.Bind(func(m Message) {
					calls.Add(1)
					nd.Send(m.Src, []byte("ack"))
				})
			}
			zr.Bind(func(Message) { calls.Add(1) })
		}
		for k := 0; k < 5; k++ {
			root.Send(group, []byte("adv"))
			n.RunUntilIdle(0)
		}
		st := n.Stats()
		if st.ShardEvents != calls.Load() || calls.Load() == 0 {
			t.Errorf("workers=%d: Stats.ShardEvents = %d, handler calls = %d", w, st.ShardEvents, calls.Load())
		}
		if st.ShardCausalityViolations != 0 {
			t.Errorf("workers=%d: %d causality violations", w, st.ShardCausalityViolations)
		}
		if st.NoHandler != 0 || int64(st.Delivered) != calls.Load() {
			t.Errorf("workers=%d: stats %+v, handler calls %d", w, st, calls.Load())
		}
		n.Close()
	}
}

// TestNestedStepInsideMulticastBatch: a handler that drives the clock
// itself (the SDK's reentrant pump) runs the rest of its multicast batch
// from inside the first receiver's call, as it would run separately queued
// arrivals, whether the outer driver is Step or RunUntilIdle. The batch must
// be recycled exactly once, by whichever call runs its last receiver, so
// later sends — several queued at once, drawing on the delivery pool — still
// reach every receiver exactly once with their own payload.
func TestNestedStepInsideMulticastBatch(t *testing.T) {
	members := []string{"2001:db8::2", "2001:db8::3", "2001:db8::4"}
	for _, tc := range []struct {
		name  string
		drive func(*Network)
	}{
		{"step", func(n *Network) {
			for n.Step() {
			}
		}},
		{"runUntilIdle", func(n *Network) { n.RunUntilIdle(0) }},
	} {
		drive := tc.drive
		t.Run(tc.name, func(t *testing.T) {
			n := New(Config{})
			root, _ := n.AddNode(addr("2001:db8::1"), nil)
			group := MulticastAddr(PrefixFromAddr(root.Addr()), 0xad1cbe01)
			var got []string
			nested := true
			for i, s := range members {
				nd, _ := n.AddNode(addr(s), root)
				nd.JoinGroup(group)
				nd.Bind(func(m Message) {
					got = append(got, s+"="+string(m.Payload))
					if i == 0 && nested {
						nested = false
						for n.Step() {
						}
						got = append(got, s+" returns")
					}
				})
			}
			root.Send(group, []byte("p0"))
			drive(n)
			for round := 1; round <= 3; round++ {
				for k := 0; k < 4; k++ {
					root.Send(group, []byte(fmt.Sprintf("p%d.%d", round, k)))
				}
				drive(n)
			}
			var want []string
			for _, s := range members {
				want = append(want, s+"=p0")
			}
			want = append(want, members[0]+" returns")
			for round := 1; round <= 3; round++ {
				for k := 0; k < 4; k++ {
					for _, s := range members {
						want = append(want, fmt.Sprintf("%s=p%d.%d", s, round, k))
					}
				}
			}
			if g, w := strings.Join(got, " "), strings.Join(want, " "); g != w {
				t.Fatalf("deliveries\n got %s\nwant %s", g, w)
			}
			if st := n.Stats(); st.Delivered != len(members)*13 || st.NoHandler != 0 {
				t.Fatalf("stats %+v, want %d delivered", st, len(members)*13)
			}
		})
	}
}

// TestNestedStepRunsBatchToItsEnd: a handler whose reentrant Step runs the
// last receiver of its own batch ends that batch. When the handler then
// sends again, the new batch (likely the old one, back from the delivery
// pool) must arrive one hop later, after the outer driver has gone back to
// the heap, not be handed out at the old batch's instant.
func TestNestedStepRunsBatchToItsEnd(t *testing.T) {
	n := New(Config{})
	root, _ := n.AddNode(addr("2001:db8::1"), nil)
	group := MulticastAddr(PrefixFromAddr(root.Addr()), 0xad1cbe01)
	members := []string{"2001:db8::2", "2001:db8::3", "2001:db8::4"}
	var got []string
	for i, s := range members {
		nd, _ := n.AddNode(addr(s), root)
		nd.JoinGroup(group)
		nd.Bind(func(m Message) {
			got = append(got, fmt.Sprintf("%s=%s@%v", s, m.Payload, nd.Now()))
			if i == 1 && string(m.Payload) == "p0" {
				n.Step() // runs the batch's last receiver
				root.Send(group, []byte("p1"))
			}
		})
	}
	root.Send(group, []byte("p0"))
	n.RunUntilIdle(0)
	hop := PacketDelay(2, true)
	var want []string
	for _, p := range []string{"p0", "p1"} {
		at := hop
		if p == "p1" {
			at = 2 * hop
		}
		for _, s := range members {
			want = append(want, fmt.Sprintf("%s=%s@%v", s, p, at))
		}
	}
	if g, w := strings.Join(got, " "), strings.Join(want, " "); g != w {
		t.Fatalf("deliveries\n got %s\nwant %s", g, w)
	}
}
