// Deployment-scale tests and benchmarks through the public SDK: multi-level
// trees, parameterized large topologies, hot-swap churn, and the
// zone-sharded tiers on the parallel clock.
package micropnp_test

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"testing"
	"time"

	"micropnp"
	"micropnp/internal/netsim"
)

// scaleThing is one Thing of a scale topology and the sensor kind plugged
// into it (an index into scaleKinds).
type scaleThing struct {
	th   *micropnp.Thing
	kind int
}

// scaleKinds are the round-robin sensor kinds of the scale topologies.
var scaleKinds = []micropnp.DeviceID{micropnp.TMP36, micropnp.HIH4030, micropnp.BMP180}

// plugKind plugs sensor kind (kind % 3) of scaleKinds into channel 0.
func plugKind(th *micropnp.Thing, kind int) error {
	switch kind % 3 {
	case 0:
		return th.PlugTMP36(0)
	case 1:
		return th.PlugHIH4030(0)
	default:
		return th.PlugBMP180(0)
	}
}

// readAll reads one peripheral type from every Thing at once, each read on
// its own Conduct strand so all are in flight together, and returns how many
// answered with want values.
func readAll(d *micropnp.Deployment, cl *micropnp.Client, id micropnp.DeviceID, things []*micropnp.Thing, want int) int {
	ok := make([]bool, len(things))
	strands := make([]func(*micropnp.Strand), len(things))
	for i, th := range things {
		strands[i] = func(*micropnp.Strand) {
			r, err := cl.Read(context.Background(), th.Addr(), id)
			ok[i] = err == nil && len(r.Values) == want
		}
	}
	d.Conduct(strands...)
	n := 0
	for _, o := range ok {
		if o {
			n++
		}
	}
	return n
}

// discoverCount runs a discovery to completion and returns the advert count.
func discoverCount(t *testing.T, cl *micropnp.Client, id micropnp.DeviceID) int {
	t.Helper()
	ads, err := cl.Discover(context.Background(), id)
	if err != nil {
		t.Fatal(err)
	}
	return len(ads)
}

// TestTwentyThingDeployment exercises the system at deployment scale: 20
// Things across a 3-level tree, all plugging peripherals, one client
// discovering and reading everything.
func TestTwentyThingDeployment(t *testing.T) {
	d := newSDKDeployment(t)
	cl, _ := d.AddClient()

	things := make([]scaleThing, 0, 20)
	var parent *micropnp.Thing
	for i := 0; i < 20; i++ {
		th, err := d.AddThing(fmt.Sprintf("n%d", i), micropnp.Under(parent))
		if err != nil {
			t.Fatal(err)
		}
		if i%7 == 6 {
			parent = th // deepen the tree every 7 things
		}
		if err := plugKind(th, i%3); err != nil {
			t.Fatal(err)
		}
		things = append(things, scaleThing{th: th, kind: i % 3})
	}
	d.Run()

	// Every plug-in completed.
	for i, ref := range things {
		trs := ref.th.Traces()
		if len(trs) != 1 || !trs[0].Done {
			t.Fatalf("thing %d: trace = %+v", i, trs)
		}
	}
	// The manager uploaded each driver exactly once per thing that needed it.
	if ups := d.ManagerUploads(); ups != 20 {
		t.Fatalf("uploads = %d, want 20", ups)
	}
	// Discovery by type finds the right subset.
	if _, err := cl.Discover(context.Background(), micropnp.TMP36); err != nil {
		t.Fatal(err)
	}
	if got := len(cl.Things(micropnp.TMP36)); got != 7 {
		t.Fatalf("TMP36 things = %d, want 7", got)
	}

	// Read every BMP180 in the deployment, all reads in flight at once.
	var bmp []*micropnp.Thing
	for _, ref := range things {
		if ref.kind == 2 {
			bmp = append(bmp, ref.th)
		}
	}
	if reads := readAll(d, cl, micropnp.BMP180, bmp, 2); reads != 6 {
		t.Fatalf("BMP180 reads = %d, want 6", reads)
	}
}

// TestStreamMultipleSubscribers: two clients subscribe to the same
// peripheral stream; both receive the data via the shared multicast group,
// and the closed notification reaches both.
func TestStreamMultipleSubscribers(t *testing.T) {
	d := newSDKDeployment(t, micropnp.WithStreamPeriod(5*time.Second))
	th, _ := d.AddThing("src")
	c1, _ := d.AddClient()
	c2, _ := d.AddClient()
	if err := th.PlugTMP36(0); err != nil {
		t.Fatal(err)
	}
	d.Run()

	ctx := context.Background()
	s1, err := c1.Subscribe(ctx, th.Addr(), micropnp.TMP36, nil)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := c2.Subscribe(ctx, th.Addr(), micropnp.TMP36, nil)
	if err != nil {
		t.Fatal(err)
	}
	d.RunFor(16 * time.Second)

	if got1, got2 := len(s1.Readings()), len(s2.Readings()); got1 < 2 || got2 < 2 {
		t.Fatalf("stream data: c1=%d c2=%d, want >= 2 each", got1, got2)
	}
	th.StopStream(micropnp.TMP36)
	d.Run()
	if !s1.Closed() || !s2.Closed() {
		t.Fatalf("closed: c1=%v c2=%v", s1.Closed(), s2.Closed())
	}
}

// TestThreePeripheralsOneBoard fills all three channels of one board and
// reads each driver with all three reads in flight at once.
func TestThreePeripheralsOneBoard(t *testing.T) {
	d := newSDKDeployment(t)
	th, _ := d.AddThing("full")
	cl, _ := d.AddClient()
	d.SetEnvironment(19.5, 61, 99_000)
	if err := th.PlugTMP36(0); err != nil {
		t.Fatal(err)
	}
	if err := th.PlugHIH4030(1); err != nil {
		t.Fatal(err)
	}
	if err := th.PlugBMP180(2); err != nil {
		t.Fatal(err)
	}
	d.Run()

	if got := len(th.InstalledDrivers()); got != 3 {
		t.Fatalf("installed = %d drivers", got)
	}
	results := make([][]int32, len(scaleKinds))
	strands := make([]func(*micropnp.Strand), len(scaleKinds))
	for i, id := range scaleKinds {
		strands[i] = func(*micropnp.Strand) {
			if r, err := cl.Read(context.Background(), th.Addr(), id); err == nil {
				results[i] = r.Values
			}
		}
	}
	d.Conduct(strands...)
	if temp := results[0]; len(temp) != 1 || temp[0] < 185 || temp[0] > 205 {
		t.Errorf("TMP36 = %v", temp)
	}
	if rh := results[1]; len(rh) != 1 || rh[0] < 570 || rh[0] > 650 {
		t.Errorf("HIH4030 = %v", rh)
	}
	if p := results[2]; len(p) != 2 || p[1] < 98_950 || p[1] > 99_050 {
		t.Errorf("BMP180 = %v", p)
	}
}

// ---------------------------------------------------------------------------
// Parameterized large-scale topologies. -short keeps the quick 100-Thing
// run for every leg; the full suite (plain `go test`, and CI's push-to-main
// leg) climbs to 1,000 and 5,000 Things.

// scaleSizes returns the Thing counts the parameterized scale tests cover.
func scaleSizes() []int {
	if testing.Short() {
		return []int{100}
	}
	return []int{100, 1000, 5000}
}

// buildScaleThings attaches n Things with round-robin peripherals. The
// nextParent callback picks each Thing's tree parent (nil = the manager),
// shaping the topology.
func buildScaleThings(t testing.TB, d *micropnp.Deployment, n int, nextParent func(i int, prev *micropnp.Thing) *micropnp.Thing) []scaleThing {
	t.Helper()
	things := make([]scaleThing, 0, n)
	var prev *micropnp.Thing
	for i := 0; i < n; i++ {
		th, err := d.AddThing(fmt.Sprintf("n%d", i), micropnp.Under(nextParent(i, prev)))
		if err != nil {
			t.Fatal(err)
		}
		if err := plugKind(th, i%3); err != nil {
			t.Fatal(err)
		}
		things = append(things, scaleThing{th: th, kind: i % 3})
		prev = th
	}
	return things
}

// assertScaleDeployment checks the invariants every topology must satisfy
// after the plug-in sequences drained: all traces complete, drivers served,
// discovery counts per kind, and working reads. Trees deeper than ~40 hops
// need a deployment with a generous request timeout, since replies take
// seconds of virtual time to climb back. exactUploads is false for such
// trees: round trips beyond the Things' driver-request timeout legitimately
// trigger retransmissions, so the manager serves more uploads than Things.
func assertScaleDeployment(t *testing.T, d *micropnp.Deployment, cl *micropnp.Client, things []scaleThing, exactUploads bool) {
	t.Helper()
	n := len(things)
	for i, ref := range things {
		trs := ref.th.Traces()
		if len(trs) != 1 || !trs[0].Done {
			t.Fatalf("thing %d: plug-in did not complete: %+v", i, trs)
		}
	}
	if ups := d.ManagerUploads(); ups != n && (exactUploads || ups < n) {
		t.Fatalf("uploads = %d, want %s%d", ups, map[bool]string{true: "", false: ">= "}[exactUploads], n)
	}
	counts := map[int]int{}
	for _, ref := range things {
		counts[ref.kind]++
	}
	for kind, id := range scaleKinds {
		if got := discoverCount(t, cl, id); got != counts[kind] {
			t.Fatalf("discovery of kind %d found %d things, want %d", kind, got, counts[kind])
		}
	}
	// Read a spread of BMP180s across the topology (front, middle, back).
	var sample []*micropnp.Thing
	for _, i := range []int{2, n / 2, n - 3} {
		for ; i < n && things[i].kind != 2; i++ {
		}
		if i < n {
			sample = append(sample, things[i].th)
		}
	}
	if reads := readAll(d, cl, micropnp.BMP180, sample, 2); reads != len(sample) {
		t.Fatalf("reads = %d, want %d", reads, len(sample))
	}
	if st := d.NetworkStats(); st.NoHandler != 0 {
		t.Fatalf("NoHandler = %d; scale traffic must only hit bound ports", st.NoHandler)
	}
}

// TestScaleDeepTree: chains that deepen every 10 Things, giving tree depths
// up to 500 at 5,000 Things — the worst case for per-pair path length.
func TestScaleDeepTree(t *testing.T) {
	for _, n := range scaleSizes() {
		t.Run(fmt.Sprintf("things=%d", n), func(t *testing.T) {
			// Depth reaches n/10 hops: replies take minutes of virtual
			// time, and driver round trips exceed the retransmission
			// timeout (duplicate uploads are expected protocol behavior).
			d := newSDKDeployment(t, micropnp.WithRequestTimeout(time.Hour))
			cl, err := d.AddClient()
			if err != nil {
				t.Fatal(err)
			}
			var parent *micropnp.Thing
			things := buildScaleThings(t, d, n, func(i int, prev *micropnp.Thing) *micropnp.Thing {
				if i > 0 && i%10 == 0 {
					parent = prev // deepen the chain every 10 Things
				}
				return parent
			})
			d.Run()
			assertScaleDeployment(t, d, cl, things, false)
		})
	}
}

// TestScaleWideFanout: every Thing one hop from the manager — the worst
// case for group fan-out (a discovery reaches every member in one hop).
func TestScaleWideFanout(t *testing.T) {
	for _, n := range scaleSizes() {
		t.Run(fmt.Sprintf("things=%d", n), func(t *testing.T) {
			d := newSDKDeployment(t)
			cl, err := d.AddClient()
			if err != nil {
				t.Fatal(err)
			}
			things := buildScaleThings(t, d, n, func(int, *micropnp.Thing) *micropnp.Thing { return nil })
			d.Run()
			assertScaleDeployment(t, d, cl, things, true)
		})
	}
}

// TestScaleMultiGroupMix: three branch subtrees, one sensor kind per
// branch, clients attached at different tree positions — exercises several
// multicast groups concurrently plus discovery from non-root vantage
// points.
func TestScaleMultiGroupMix(t *testing.T) {
	for _, n := range scaleSizes() {
		t.Run(fmt.Sprintf("things=%d", n), func(t *testing.T) {
			// Branches reach ~n/60 hops deep; give replies the virtual
			// time to climb back before the discovery deadline.
			d := newSDKDeployment(t, micropnp.WithRequestTimeout(time.Hour))
			branchRoots := make([]*micropnp.Thing, 3)
			branchParents := make([]*micropnp.Thing, 3)
			counts := map[int]int{}
			for i := 0; i < n; i++ {
				branch := i % 3
				th, err := d.AddThing(fmt.Sprintf("b%dn%d", branch, i), micropnp.Under(branchParents[branch]))
				if err != nil {
					t.Fatal(err)
				}
				if branchRoots[branch] == nil {
					branchRoots[branch] = th
				}
				if (i/3)%20 == 19 {
					branchParents[branch] = th // deepen each branch every 20
				} else if branchParents[branch] == nil {
					branchParents[branch] = branchRoots[branch]
				}
				// One kind per branch: branch b holds only kind b.
				if err := plugKind(th, branch); err != nil {
					t.Fatal(err)
				}
				counts[branch]++
			}
			// One client at the root, one deep inside branch 0.
			clRoot, err := d.AddClient()
			if err != nil {
				t.Fatal(err)
			}
			clDeep, err := d.AddClientUnder(branchRoots[0])
			if err != nil {
				t.Fatal(err)
			}
			d.Run()

			for _, cl := range []*micropnp.Client{clRoot, clDeep} {
				for kind, id := range scaleKinds {
					if got := discoverCount(t, cl, id); got != counts[kind] {
						t.Fatalf("kind %d: discovered %d, want %d", kind, got, counts[kind])
					}
				}
			}
		})
	}
}

// TestScaleChurnHotSwap: a populated deployment where every 10th Thing
// hot-swaps its peripheral (TMP36 out, BMP180 in). Group membership, plans
// and discovery results must all track the churn.
func TestScaleChurnHotSwap(t *testing.T) {
	for _, n := range scaleSizes() {
		t.Run(fmt.Sprintf("things=%d", n), func(t *testing.T) {
			d := newSDKDeployment(t, micropnp.WithRequestTimeout(time.Hour))
			cl, err := d.AddClient()
			if err != nil {
				t.Fatal(err)
			}
			var parent *micropnp.Thing
			things := make([]*micropnp.Thing, 0, n)
			for i := 0; i < n; i++ {
				th, err := d.AddThing(fmt.Sprintf("n%d", i), micropnp.Under(parent))
				if err != nil {
					t.Fatal(err)
				}
				if i > 0 && i%25 == 0 {
					parent = th
				}
				if err := th.PlugTMP36(0); err != nil {
					t.Fatal(err)
				}
				things = append(things, th)
			}
			d.Run()

			swapped := 0
			for i := 0; i < n; i += 10 {
				if err := things[i].Unplug(0); err != nil {
					t.Fatal(err)
				}
				swapped++
			}
			d.Run()
			for i := 0; i < n; i += 10 {
				if err := things[i].PlugBMP180(0); err != nil {
					t.Fatal(err)
				}
			}
			d.Run()

			for i := 0; i < n; i += 10 {
				if trs := things[i].Traces(); len(trs) != 2 || !trs[1].Done {
					t.Fatalf("thing %d: swap trace incomplete: %+v", i, trs)
				}
				if things[i].InGroup(micropnp.TMP36) || !things[i].InGroup(micropnp.BMP180) {
					t.Fatalf("thing %d: group membership did not follow the hot-swap", i)
				}
			}
			gotTMP, gotBMP := discoverCount(t, cl, micropnp.TMP36), discoverCount(t, cl, micropnp.BMP180)
			if gotTMP != n-swapped || gotBMP != swapped {
				t.Fatalf("post-churn discovery: TMP36=%d (want %d) BMP180=%d (want %d)",
					gotTMP, n-swapped, gotBMP, swapped)
			}
		})
	}
}

// ---------------------------------------------------------------------------
// Zone-sharded scale tiers. -short keeps a quick sanity size for every PR
// leg; the default suite climbs to 10,000 Things; the CI scale-100k job
// (push to main) sets MICROPNP_SCALE_100K=1 to unlock the 50,000- and
// 100,000-Thing tiers that the single-loop clock never reached.
func zonedScaleSizes() []int {
	if testing.Short() {
		return []int{200}
	}
	sizes := []int{2000, 10000}
	if os.Getenv("MICROPNP_SCALE_100K") != "" {
		sizes = append(sizes, 50000, 100000)
	}
	return sizes
}

// zonesFor picks a lane count that keeps thousands of Things per zone at the
// big tiers (barrier overhead amortizes over lane work).
func zonesFor(n int) int {
	switch {
	case n >= 50000:
		return 16
	case n >= 2000:
		return 8
	default:
		return 4
	}
}

// buildZonedScale assembles a zoned deployment: one zone-root Thing per zone
// directly under the manager, all other Things under their zone root, round-
// robin across zones and sensor kinds.
func buildZonedScale(t testing.TB, d *micropnp.Deployment, n, zones int) []scaleThing {
	t.Helper()
	zoneRoots := make([]*micropnp.Thing, zones)
	things := make([]scaleThing, 0, n)
	for i := 0; i < n; i++ {
		zone := i % zones
		th, err := d.AddThing(fmt.Sprintf("z%dn%d", zone, i), micropnp.InZone(uint16(zone)), micropnp.Under(zoneRoots[zone]))
		if err != nil {
			t.Fatal(err)
		}
		if zoneRoots[zone] == nil {
			zoneRoots[zone] = th
		}
		if err := plugKind(th, i%3); err != nil {
			t.Fatal(err)
		}
		things = append(things, scaleThing{th: th, kind: i % 3})
	}
	return things
}

// TestScaleZoned is the zone-sharded scale tier: the full plug-in protocol,
// discovery and reads across every zone, run on the parallel sharded clock.
func TestScaleZoned(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	for _, n := range zonedScaleSizes() {
		t.Run(fmt.Sprintf("things=%d", n), func(t *testing.T) {
			zones := zonesFor(n)
			d := newSDKDeployment(t, micropnp.WithZones(zones), micropnp.WithRequestTimeout(time.Hour))
			defer d.Close()
			cl, err := d.AddClient()
			if err != nil {
				t.Fatal(err)
			}
			things := buildZonedScale(t, d, n, zones)
			d.Run()
			if lanes := d.NetworkStats().ShardLanes; lanes != zones {
				t.Fatalf("ShardLanes = %d, want %d", lanes, zones)
			}
			assertScaleDeployment(t, d, cl, things, true)
		})
	}
}

// zonedChurnRun executes the cross-zone hot-swap churn scenario — plug
// everywhere, unplug and re-plug a spread of Things across all zones, then
// discover — under a given worker bound, with loss and jitter enabled so the
// per-zone RNG streams are load-bearing. It returns the deployment's final
// observable state for cross-mode comparison.
func zonedChurnRun(t *testing.T, n, zones, workers int) (stats micropnp.NetworkStats, uploads, gotTMP, gotBMP int) {
	t.Helper()
	d := newSDKDeployment(t,
		micropnp.WithZones(zones),
		micropnp.WithShardWorkers(workers),
		micropnp.WithLossRate(0.02),
		micropnp.WithProcJitter(0.05),
		micropnp.WithSeed(7),
		micropnp.WithRequestTimeout(time.Hour),
	)
	defer d.Close()
	cl, err := d.AddClient()
	if err != nil {
		t.Fatal(err)
	}
	zoneRoots := make([]*micropnp.Thing, zones)
	things := make([]*micropnp.Thing, 0, n)
	for i := 0; i < n; i++ {
		zone := i % zones
		th, err := d.AddThing(fmt.Sprintf("z%dn%d", zone, i), micropnp.InZone(uint16(zone)), micropnp.Under(zoneRoots[zone]))
		if err != nil {
			t.Fatal(err)
		}
		if zoneRoots[zone] == nil {
			zoneRoots[zone] = th
		}
		if err := th.PlugTMP36(0); err != nil {
			t.Fatal(err)
		}
		things = append(things, th)
	}
	d.Run()

	// Hot-swap churn across every zone: unplug the TMP36, plug a BMP180.
	for i := 0; i < n; i += 5 {
		if err := things[i].Unplug(0); err != nil {
			t.Fatal(err)
		}
	}
	d.Run()
	for i := 0; i < n; i += 5 {
		if err := things[i].PlugBMP180(0); err != nil {
			t.Fatal(err)
		}
	}
	d.Run()

	return d.NetworkStats(), d.ManagerUploads(), discoverCount(t, cl, micropnp.TMP36), discoverCount(t, cl, micropnp.BMP180)
}

// TestScaleZonedChurnBothModes runs the same churn scenario under the
// parallel sharded schedule and the sequential single-loop schedule and
// asserts the end states are identical — the application-level face of the
// bit-determinism guarantee, with hot-swap membership churn crossing zone
// boundaries while loss/jitter RNG draws ride the zone streams.
func TestScaleZonedChurnBothModes(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	n := 1200
	if testing.Short() {
		n = 120
	}
	const zones = 4
	seqStats, seqUploads, seqTMP, seqBMP := zonedChurnRun(t, n, zones, 1)
	parStats, parUploads, parTMP, parBMP := zonedChurnRun(t, n, zones, 0)
	if parStats != seqStats {
		t.Errorf("stats diverged across clock modes:\n  single-loop %+v\n  parallel    %+v", seqStats, parStats)
	}
	if parUploads != seqUploads {
		t.Errorf("uploads diverged: single-loop %d, parallel %d", seqUploads, parUploads)
	}
	if parTMP != seqTMP || parBMP != seqBMP {
		t.Errorf("discovery diverged: single-loop TMP=%d BMP=%d, parallel TMP=%d BMP=%d",
			seqTMP, seqBMP, parTMP, parBMP)
	}
	if seqBMP == 0 {
		t.Fatal("churn scenario discovered no BMP180s; the swap did not happen")
	}
}

// TestAdvertViewBoundedUnderRepeatedDiscovery runs rounds of wildcard
// discovery across a zoned deployment on two shard workers. Every round's
// replies refresh the client's advert view in place: its size stays the
// number of advertised (Thing, peripheral) pairs, however many rounds ran.
func TestAdvertViewBoundedUnderRepeatedDiscovery(t *testing.T) {
	const things, zones = 32, 4
	d := newSDKDeployment(t, micropnp.WithZones(zones), micropnp.WithShardWorkers(2))
	buildZonedScale(t, d, things, zones)
	cl, err := d.AddClient()
	if err != nil {
		t.Fatal(err)
	}
	d.Run()
	if n := len(cl.Adverts()); n != things {
		t.Fatalf("after plug-in: view holds %d adverts, want %d", n, things)
	}
	for k := 1; k <= 4; k++ {
		if got := discoverCount(t, cl, micropnp.AllPeripherals); got != things {
			t.Fatalf("round %d: discovery collected %d adverts, want %d", k, got, things)
		}
		view := cl.Adverts()
		if len(view) != things {
			t.Fatalf("round %d: view holds %d adverts, want %d", k, len(view), things)
		}
		for _, a := range view {
			if !a.Solicited {
				t.Fatalf("round %d: %v's slot still holds its plug-in advert", k, a.Thing)
			}
		}
	}
	if st := d.NetworkStats(); st.ShardLaneRounds <= st.ShardRounds {
		t.Fatalf("no parallel rounds ran: %+v", st)
	}
}

// netSentinel is a leaf object that only the network references, through a
// handler bound on one of its nodes, so it becomes collectable exactly when
// the network does. A finalizer on the Deployment or its network would never
// run: the clock's barrier hook points back at the network, and the runtime
// does not finalize objects that are part of a reference cycle.
type netSentinel struct{ hits *int }

// TestDroppedZonedDeploymentIsCollected drops a zoned deployment whose rounds
// ran on two shard workers without calling Close: once nothing references
// it, its network must be garbage collected. The shard helpers outlive the
// deployment's last call, so they must not pin its clock (and through the
// clock the whole network).
func TestDroppedZonedDeploymentIsCollected(t *testing.T) {
	collected := make(chan struct{})
	func() {
		d := newSDKDeployment(t, micropnp.WithZones(8), micropnp.WithShardWorkers(2))
		buildZonedScale(t, d, 64, 8)
		d.Run()
		if st := d.NetworkStats(); st.ShardLaneRounds <= st.ShardRounds {
			t.Fatalf("no parallel rounds ran: %+v", st)
		}
		node, err := d.AddPeerNode(mustAddr("2001:db8::beef"))
		if err != nil {
			t.Fatal(err)
		}
		s := &netSentinel{hits: new(int)}
		node.Bind(func(netsim.Message) { *s.hits++ })
		runtime.SetFinalizer(s, func(*netSentinel) { close(collected) })
	}()
	for i := 0; i < 20; i++ {
		runtime.GC()
		select {
		case <-collected:
			return
		case <-time.After(10 * time.Millisecond):
		}
	}
	t.Fatal("a dropped zoned deployment stayed reachable after 20 collections")
}

// BenchmarkScaleDiscovery measures one full type-discovery round trip — a
// multicast query fanning out to every Thing hosting the type, all replies
// delivered, and the deadline closing the request — on a populated wide
// deployment. Per-discovery cost must scale with the member count, not with
// simulator bookkeeping: the membership index and cached SMRF plans keep
// the fan-out O(members).
func BenchmarkScaleDiscovery(b *testing.B) {
	for _, n := range []int{100, 1000} {
		b.Run(fmt.Sprintf("things=%d", n), func(b *testing.B) {
			d, err := micropnp.NewDeployment()
			if err != nil {
				b.Fatal(err)
			}
			cl, err := d.AddClient()
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < n; i++ {
				th, err := d.AddThing(fmt.Sprintf("n%d", i))
				if err != nil {
					b.Fatal(err)
				}
				if err := th.PlugTMP36(0); err != nil {
					b.Fatal(err)
				}
			}
			d.Run()
			ctx := context.Background()
			// Batch rounds per op so -benchtime 1x (the CI regression
			// gate) measures a stable multi-millisecond quantity.
			const batch = 4
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for j := 0; j < batch; j++ {
					ads, err := cl.Discover(ctx, micropnp.TMP36)
					if err != nil || len(ads) != n {
						b.Fatalf("discovered %d (%v), want %d", len(ads), err, n)
					}
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*batch), "ns/discovery")
		})
	}
}
