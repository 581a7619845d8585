package core

import (
	"fmt"
	"os"
	"testing"

	"micropnp/internal/client"
	"micropnp/internal/driver"
)

// BenchmarkScaleDiscovery measures one full type-discovery round trip — a
// multicast query fanning out to every Thing hosting the type, all replies
// delivered, and the deadline closing the request — on a populated wide
// deployment. Per-discovery cost must scale with the member count, not with
// simulator bookkeeping: the membership index and cached SMRF plans keep
// the fan-out O(members).
func BenchmarkScaleDiscovery(b *testing.B) {
	for _, n := range []int{100, 1000} {
		b.Run(fmt.Sprintf("things=%d", n), func(b *testing.B) {
			d, err := NewDeployment(DeploymentConfig{})
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
				if err := d.PlugTMP36(th, 0); err != nil {
					b.Fatal(err)
				}
			}
			d.Run()
			// Batch rounds per op so -benchtime 1x (the CI regression
			// gate) measures a stable multi-millisecond quantity.
			const batch = 4
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for j := 0; j < batch; j++ {
					got := -1
					cl.Discover(driver.IDTMP36, 0, func(ads []client.Advert) { got = len(ads) })
					d.Run()
					if got != n {
						b.Fatalf("discovered %d, want %d", got, n)
					}
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*batch), "ns/discovery")
		})
	}
}

// BenchmarkScaleZonedDiscovery is the full-protocol parallel-speedup pair: the identical
// zone-partitioned multicast workload — every zone's client discovering its
// own zone-scoped group, fan-out and replies staying intra-zone — run once on
// the parallel sharded schedule (clock=sharded) and once on the sequential
// single-loop schedule (clock=single) of the same zoned topology. The two
// schedules execute the same events in the same order (bit-determinism), so
// the ns/op ratio single/sharded is a pure measure of parallel speedup. It
// carries protocol work outside the lanes, so it is recorded, not gated:
// the CI scale-100k job runs the 50,000-Thing tier (MICROPNP_SCALE_100K=1)
// into its artifact. The default size keeps local runs quick.
func BenchmarkScaleZonedDiscovery(b *testing.B) {
	n := 2000
	if os.Getenv("MICROPNP_SCALE_100K") != "" {
		n = 50000
	}
	const zones = 16
	for _, mode := range []struct {
		name    string
		workers int
	}{
		{"sharded", 0},
		{"single", 1},
	} {
		b.Run(fmt.Sprintf("things=%d/clock=%s", n, mode.name), func(b *testing.B) {
			d, err := NewDeployment(DeploymentConfig{Zones: zones, Workers: mode.workers})
			if err != nil {
				b.Fatal(err)
			}
			defer d.Close()
			// Location zones are 1-based: zone 0 in the multicast schema is
			// the unscoped (global) group form.
			perZone := make([]int, zones+1)
			for i := 0; i < n; i++ {
				zone := 1 + i%zones
				th, err := d.AddZonedThing(fmt.Sprintf("z%dn%d", zone, i), uint16(zone))
				if err != nil {
					b.Fatal(err)
				}
				if err := d.PlugTMP36(th, 0); err != nil {
					b.Fatal(err)
				}
				perZone[zone]++
			}
			clients := make([]*client.Client, zones+1)
			for z := 1; z <= zones; z++ {
				cl, err := d.AddClientInZone(uint16(z), nil)
				if err != nil {
					b.Fatal(err)
				}
				clients[z] = cl
			}
			d.Run()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				got := make([]int, zones+1)
				for z := 1; z <= zones; z++ {
					z := z
					clients[z].DiscoverInZone(uint16(z), driver.IDTMP36, 0, func(ads []client.Advert) { got[z] = len(ads) })
				}
				d.Run()
				for z := 1; z <= zones; z++ {
					if got[z] != perZone[z] {
						b.Fatalf("zone %d: discovered %d, want %d", z, got[z], perZone[z])
					}
				}
			}
		})
	}
}
