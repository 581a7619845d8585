// Command upnp-sim runs a scripted µPnP deployment scenario on the
// simulated network and prints a trace of what happened: peripherals get
// plugged into Things, drivers are fetched over the air from the manager,
// clients discover and read the peripherals. It is written entirely against
// the public SDK (package micropnp).
//
// Usage:
//
//	upnp-sim [-things N] [-hops H] [-loss P] [-churn K] [-seed S] [-realtime] [-timescale X]
//	         [-zones Z] [-shard-workers W]
//	         [-cpuprofile FILE] [-memprofile FILE]
//
// Flags:
//
//	-things    number of Things (default 3)
//	-hops      depth of the RPL tree the Things hang from (default 1)
//	-loss      per-hop frame loss probability (default 0)
//	-churn     extra plug/unplug cycles to simulate (default 1)
//	-seed      random seed for loss/jitter sampling (default 1)
//	-realtime  run on the wall clock: the network advances on its own
//	           goroutines and SDK calls genuinely block (default: the
//	           deterministic virtual clock)
//	-timescale virtual seconds per wall second in -realtime mode
//	           (default 60; 1 = true real time)
//	-zones     run on the zone-sharded parallel clock with this many
//	           address zones (virtual mode only); Things spread round
//	           robin across per-zone subtrees. Results are bit-identical
//	           to the single-loop schedule of the same seed.
//	-shard-workers
//	           sharded round parallelism: 0 = GOMAXPROCS (default),
//	           1 = the sequential single-loop schedule
//	-cpuprofile / -memprofile
//	           write pprof profiles of the scenario — the quickest way to
//	           diagnose a regression the benchgate CI gate flagged:
//	           go run ./cmd/upnp-sim -things 100 -churn 10 -cpuprofile cpu.pprof -memprofile mem.pprof
//	           go tool pprof -top cpu.pprof
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"

	"micropnp"
)

func main() {
	nThings := flag.Int("things", 3, "number of Things")
	hops := flag.Int("hops", 1, "tree depth of the Things")
	loss := flag.Float64("loss", 0, "per-hop frame loss probability")
	churn := flag.Int("churn", 1, "extra plug/unplug cycles")
	seed := flag.Int64("seed", 1, "random seed for loss/jitter sampling")
	realtime := flag.Bool("realtime", false, "run on the wall clock (concurrent runtime)")
	timescale := flag.Float64("timescale", 60, "virtual seconds per wall second in -realtime mode")
	zones := flag.Int("zones", 0, "zone-sharded lane count (>1 enables the parallel clock; virtual mode only)")
	shardWorkers := flag.Int("shard-workers", 0, "sharded round parallelism: 0 = GOMAXPROCS, 1 = sequential single-loop schedule")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the scenario to this file")
	memprofile := flag.String("memprofile", "", "write an allocation profile (after the scenario) to this file")
	flag.Parse()

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "upnp-sim:", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "upnp-sim:", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}

	if err := run(*nThings, *hops, *loss, *churn, *seed, *realtime, *timescale, *zones, *shardWorkers); err != nil {
		fmt.Fprintln(os.Stderr, "upnp-sim:", err)
		os.Exit(1)
	}

	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "upnp-sim:", err)
			os.Exit(1)
		}
		defer f.Close()
		runtime.GC() // settle live objects so the profile shows retention, not churn
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "upnp-sim:", err)
			os.Exit(1)
		}
	}
}

func run(nThings, hops int, loss float64, churn int, seed int64, realtime bool, timescale float64, zones, shardWorkers int) error {
	opts := []micropnp.Option{micropnp.WithLossRate(loss), micropnp.WithSeed(seed)}
	if realtime {
		opts = append(opts, micropnp.WithRealTime(), micropnp.WithTimeScale(timescale))
		zones = 0 // the sharded clock is a virtual-mode construct
	}
	if zones > 1 {
		opts = append(opts, micropnp.WithZones(zones))
		if shardWorkers > 0 {
			opts = append(opts, micropnp.WithShardWorkers(shardWorkers))
		}
	}
	d, err := micropnp.NewDeployment(opts...)
	if err != nil {
		return err
	}
	defer d.Close()
	mode := "virtual clock"
	if realtime {
		mode = fmt.Sprintf("wall clock, %gx accelerated", timescale)
	} else if zones > 1 {
		mode = fmt.Sprintf("virtual clock, zone-sharded across %d lanes", zones)
	}
	fmt.Printf("deployment: loss=%.2f seed=%d runtime=%s\n", loss, seed, mode)
	ctx := context.Background()

	// Build a chain of relays to reach the requested depth, then hang the
	// Things off the last relay.
	var parent *micropnp.Thing
	for h := 1; h < hops; h++ {
		relay, err := addThing(d, fmt.Sprintf("relay-%d", h), parent)
		if err != nil {
			return err
		}
		parent = relay
	}

	things := make([]*micropnp.Thing, 0, nThings)
	kinds := []string{"TMP36", "HIH-4030", "BMP180", "ID-20LA"}
	// Under -zones, Things spread round robin across per-zone subtrees
	// hanging off the relay chain. Location zones are 1-based: zone 0 is
	// the control lane (manager, clients, relays).
	var zoneRoots []*micropnp.Thing
	if zones > 1 {
		zoneRoots = make([]*micropnp.Thing, zones+1)
	}
	for i := 0; i < nThings; i++ {
		name := fmt.Sprintf("thing-%d", i)
		var th *micropnp.Thing
		var err error
		if zoneRoots != nil {
			z := uint16(1 + i%zones)
			if zoneRoots[z] == nil {
				th, err = addThingInZone(d, name, z, parent)
				zoneRoots[z] = th
			} else {
				th, err = d.AddThing(name, micropnp.InZone(z), micropnp.Under(zoneRoots[z]))
			}
		} else {
			th, err = addThing(d, name, parent)
		}
		if err != nil {
			return err
		}
		things = append(things, th)
	}
	cl, err := d.AddClient()
	if err != nil {
		return err
	}
	cl.AddAdvertHook(func(a micropnp.Advert) {
		kind := "unsolicited"
		if a.Solicited {
			kind = "solicited"
		}
		fmt.Printf("  [client] %s advert: %v serves %v\n", kind, a.Thing, a.Device)
	})

	// Plug one peripheral per Thing, round robin over the standard set.
	for i, th := range things {
		var err error
		switch i % 4 {
		case 0:
			err = th.PlugTMP36(0)
		case 1:
			err = th.PlugHIH4030(0)
		case 2:
			err = th.PlugBMP180(0)
		case 3:
			_, err = th.PlugRFID(0)
		}
		if err != nil {
			return err
		}
		fmt.Printf("[plug] %s into %s (%v)\n", kinds[i%4], th.Addr(), d.Now())
	}
	d.Run()

	for _, th := range things {
		for _, tr := range th.Traces() {
			fmt.Printf("[trace] %v ch%d: identify=%v energy=%.3gmJ network=%v total=%v\n",
				tr.DeviceID, tr.Channel, tr.Identification.Round(0),
				float64(tr.Energy)*1e3, tr.NetworkTotal.Round(0), tr.Total.Round(0))
		}
	}
	fmt.Printf("[manager] served %d driver uploads\n", d.ManagerUploads())

	// Discovery sweep.
	fmt.Println("[client] discovering all peripherals...")
	if _, err := cl.Discover(ctx, micropnp.AllPeripherals); err != nil {
		return err
	}

	// Read every discovered temperature sensor; on a lossy network a read
	// may time out — the error surfaces instead of a callback hanging.
	for _, addr := range cl.Things(micropnp.TMP36) {
		r, err := cl.Read(ctx, addr, micropnp.TMP36)
		if err != nil {
			fmt.Printf("  [client] %v TMP36 read failed: %v\n", addr, err)
			continue
		}
		fmt.Printf("  [client] %v TMP36 reads %.1f °C\n", addr, float64(r.Values[0])/10)
	}

	// Churn: unplug and replug channel 0 of the first Thing.
	for k := 0; k < churn && len(things) > 0; k++ {
		th := things[0]
		fmt.Printf("[churn %d] unplug + replug on %v\n", k+1, th.Addr())
		if err := th.Unplug(0); err != nil {
			return err
		}
		d.Run()
		if err := th.PlugTMP36(0); err != nil {
			return err
		}
		d.Run()
	}
	st := d.NetworkStats()
	fmt.Printf("network: %d unicast, %d multicast, %d transmissions, %d delivered, %d lost, %d unhandled (virtual time %v)\n",
		st.UnicastSent, st.MulticastSent, st.Transmissions, st.Delivered, st.Lost, st.NoHandler, d.Now().Round(0))
	if st.ShardLanes > 0 && st.ShardRounds > 0 {
		fmt.Printf("sharded clock: %d lanes, %d rounds, %d events (%.1f events/round, %.0f%% lane occupancy), %d cross-lane merges, %d causality violations\n",
			st.ShardLanes, st.ShardRounds, st.ShardEvents,
			float64(st.ShardEvents)/float64(st.ShardRounds),
			100*float64(st.ShardLaneRounds)/(float64(st.ShardRounds)*float64(st.ShardLanes)),
			st.ShardCrossMerged, st.ShardCausalityViolations)
	}
	return nil
}

// addThing attaches a Thing at the root or under a parent.
func addThing(d *micropnp.Deployment, name string, parent *micropnp.Thing) (*micropnp.Thing, error) {
	if parent == nil {
		return d.AddThing(name)
	}
	return d.AddThing(name, micropnp.Under(parent))
}

func addThingInZone(d *micropnp.Deployment, name string, zone uint16, parent *micropnp.Thing) (*micropnp.Thing, error) {
	if parent == nil {
		return d.AddThing(name, micropnp.InZone(zone))
	}
	return d.AddThing(name, micropnp.InZone(zone), micropnp.Under(parent))
}
