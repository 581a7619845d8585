package netsim

import (
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// quietTypes is what the "Thing" members of quietRun take: types 1 and 2.
// Type 11 (stream data) reaches them quietly when they bind with it.
var quietTypes = TypesOf(1, 2)

// quietRun drives one lossy multicast scenario Step by Step and returns its
// record: after every Step, whether it ran, Now() and Stats(); then every
// handler call of the interested receivers, grouped by lane in each lane's
// execution order. Two thirds of the members are "Things" that take only
// quietTypes, the rest take everything; sends mix taken types and stream
// data. With typed set, the Things bind with quietTypes and stream data
// reaches them quietly; without, they bind for every type and drop what
// quietTypes does not hold themselves, as a Thing's handler did before its
// binding carried a type set. The two records must be identical. dropped
// counts the stream-data copies a Thing's handler was called with.
func quietRun(tb testing.TB, cfg Config, typed bool) (record string, dropped int64) {
	tb.Helper()
	n := New(cfg)
	defer n.Close()
	prefix := PrefixFromAddr(addr("2001:db8::1"))
	root, err := n.AddNode(UnicastAddr(prefix, 0, 0x100), nil)
	if err != nil {
		tb.Fatal(err)
	}
	group := MulticastAddr(prefix, 0xad1cbe01)
	add := func(z uint16, host uint32, parent *Node) *Node {
		nd, err := n.AddNode(UnicastAddr(prefix, z, host), parent)
		if err != nil {
			tb.Fatal(err)
		}
		return nd
	}
	var drops atomic.Int64
	var members []*Node
	for z := uint16(0); z < 8; z++ {
		zr := add(z, 0x200, root)
		for i := uint32(0); i < 3; i++ {
			c := add(z, 0x300+i, zr)
			members = append(members, c, add(z, 0x400+2*i, c), add(z, 0x401+2*i, c))
		}
	}

	logs := make([][]string, max(cfg.Zones, 1))
	handler := func(nd *Node) Handler {
		return func(m Message) {
			logs[nd.lane] = append(logs[nd.lane], fmt.Sprintf("t=%v rx=%v src=%v hops=%d %x",
				nd.Now(), nd.Addr(), m.Src, m.Hops, m.Payload))
			if m.Payload[0] != 1 {
				return
			}
			// A taken type answers by unicast, from an event at the arrival
			// instant, so replies cross lanes and interleave with batches.
			src := m.Src
			nd.Schedule(0, func() { nd.Send(src, []byte{2, byte(nd.idx)}) })
		}
	}
	root.Bind(handler(root))
	for i, nd := range members {
		nd.JoinGroup(group)
		h := handler(nd)
		thing := func(m Message) {
			if !quietTypes.Takes(m.Payload) {
				drops.Add(1)
				return
			}
			h(m)
		}
		switch {
		case i%3 == 2:
			nd.Bind(h)
		case typed:
			nd.BindTypes(thing, quietTypes)
		default:
			nd.Bind(thing)
		}
	}

	var b strings.Builder
	rng := rand.New(rand.NewSource(5))
	for phase := 0; phase < 5; phase++ {
		for i := range members {
			if rng.Intn(6) == 0 {
				if members[i].InGroup(group) {
					members[i].LeaveGroup(group)
				} else {
					members[i].JoinGroup(group)
				}
			}
		}
		for k := 0; k < 6; k++ {
			src := members[rng.Intn(len(members))]
			payload := []byte{11, byte(phase), byte(k)} // stream data
			if k%3 == 0 {
				payload[0] = 1
			}
			src.Schedule(time.Duration(rng.Intn(3))*time.Millisecond, func() { src.Send(group, payload) })
		}
		root.Send(group, []byte{11, byte(phase), 0xff})
		for steps := 0; ; steps++ {
			ran := n.Step()
			st := n.Stats()
			fmt.Fprintf(&b, "step %d.%d ran=%v now=%v stats=%+v\n", phase, steps, ran, n.Now(), st)
			if !ran {
				break
			}
		}
	}
	for lane, log := range logs {
		fmt.Fprintf(&b, "lane %d: %d calls\n", lane, len(log))
		for _, line := range log {
			b.WriteString(line)
			b.WriteByte('\n')
		}
	}
	return b.String(), drops.Load()
}

// TestQuietReceiversMatchDispatch: binding with a type set changes no event,
// step, clock reading or count, only which handlers run. A lossy multicast
// scenario run with typed bindings and with handlers that drop the same
// types themselves yields the same record after every Step, with and
// without jitter, on one lane and zoned at several worker counts.
func TestQuietReceiversMatchDispatch(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	for _, jitter := range []float64{0, 0.04} {
		for _, zw := range [][2]int{{0, 0}, {8, 1}, {8, 2}, {8, 8}} {
			cfg := Config{Zones: zw[0], Workers: zw[1], LossRate: 0.05, ProcJitter: jitter, Seed: 9}
			t.Run(fmt.Sprintf("jitter=%v/zones=%d/workers=%d", jitter, zw[0], zw[1]), func(t *testing.T) {
				typed, typedDrops := quietRun(t, cfg, true)
				plain, plainDrops := quietRun(t, cfg, false)
				if typedDrops != 0 || plainDrops == 0 {
					t.Fatalf("stream data reached typed Things' handlers %d times, plain ones' %d times; want 0 and some",
						typedDrops, plainDrops)
				}
				if typed == plain {
					return
				}
				tl, pl := strings.Split(typed, "\n"), strings.Split(plain, "\n")
				for i := range min(len(tl), len(pl)) {
					if tl[i] != pl[i] {
						t.Fatalf("records part at line %d:\ntyped %s\nplain %s", i, tl[i], pl[i])
					}
				}
				t.Fatalf("records differ in length: typed %d lines, plain %d", len(tl), len(pl))
			})
		}
	}
}
