package catalog

import (
	"math"
	"math/rand"
	"net/netip"
	"reflect"
	"sort"
	"testing"
	"time"

	"micropnp"
)

// refCatalog is the sort-everything reference the ordered-key catalog must
// agree with: a plain map, filtered, sorted and paged from scratch on every
// query.
type refCatalog map[Key]Entry

func (r refCatalog) list(f Filter, offset, limit int) ([]Entry, int) {
	var matched []Entry
	for _, e := range r {
		if f.Device != 0 && f.Device != micropnp.AllPeripherals && e.Device != f.Device {
			continue
		}
		if f.Units != "" && e.Units != f.Units {
			continue
		}
		if f.Thing.IsValid() && e.Thing != f.Thing {
			continue
		}
		matched = append(matched, e)
	}
	sort.Slice(matched, func(i, j int) bool {
		if matched[i].Thing != matched[j].Thing {
			return matched[i].Thing.Less(matched[j].Thing)
		}
		return matched[i].Device < matched[j].Device
	})
	total := len(matched)
	offset = max(offset, 0)
	if offset >= total {
		return nil, total
	}
	matched = matched[offset:]
	if limit > 0 && limit < len(matched) {
		matched = matched[:limit]
	}
	return matched, total
}

func (r refCatalog) thing(a netip.Addr) []Entry {
	page, _ := r.list(Filter{Thing: a}, 0, 0)
	return page
}

func (r refCatalog) things() int {
	seen := map[netip.Addr]bool{}
	for k := range r {
		seen[k.Thing] = true
	}
	return len(seen)
}

// TestListMatchesReference drives a catalog through random out-of-order
// registrations, refreshes on three feeds and sweeps, and after every step
// checks List, Thing and Stats against refCatalog over random filters,
// offsets and limits, out-of-range ones included.
func TestListMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		clocks := []*fakeClock{{}, {}, {}}
		c := mustCatalog(t, Config{TTL: 10 * time.Second, Now: clocks[0].Now})
		feeds := []func(micropnp.Advert){c.Observe}
		for _, clk := range clocks[1:] {
			f, err := c.AddFeed(clk.Now)
			if err != nil {
				t.Fatal(err)
			}
			feeds = append(feeds, f.Observe)
		}
		// Random addresses, so new keys arrive in no particular order.
		things := make([]netip.Addr, 24)
		for i := range things {
			var b [16]byte
			rng.Read(b[:])
			things[i] = netip.AddrFrom16(b)
		}
		devices := []micropnp.DeviceID{micropnp.TMP36, micropnp.Relay, micropnp.BMP180, micropnp.HIH4030}
		units := []string{"", "u1", "u2"}
		ref := refCatalog{}

		for step := 0; step < 300; step++ {
			switch op := rng.Intn(10); {
			case op < 7:
				feed := rng.Intn(len(feeds))
				a := micropnp.Advert{
					Thing:   things[rng.Intn(len(things))],
					Device:  devices[rng.Intn(len(devices))],
					Units:   units[rng.Intn(len(units))],
					Channel: rng.Intn(3) - 1,
					At:      clocks[feed].Now(),
				}
				feeds[feed](a)
				e, ok := c.Get(a.Thing, a.Device)
				if !ok {
					t.Fatalf("seed %d step %d: observed entry missing", seed, step)
				}
				ref[Key{a.Thing, a.Device}] = e
			case op < 9:
				clocks[rng.Intn(len(clocks))].Advance(time.Duration(rng.Intn(4)) * time.Second)
			default:
				want := 0
				for k, e := range ref {
					if e.Expires <= clocks[e.Feed].Now() {
						delete(ref, k)
						want++
					}
				}
				if got := c.Sweep(); got != want {
					t.Fatalf("seed %d step %d: Sweep dropped %d, want %d", seed, step, got, want)
				}
			}

			for q := 0; q < 4; q++ {
				var f Filter
				switch rng.Intn(4) {
				case 1:
					f.Device = devices[rng.Intn(len(devices))]
				case 2:
					f.Device = micropnp.AllPeripherals
				}
				f.Units = units[rng.Intn(len(units))]
				if rng.Intn(3) == 0 {
					f.Thing = things[rng.Intn(len(things))]
				}
				_, total := ref.list(f, 0, 0)
				offsets := []int{-3, 0, rng.Intn(total + 3), total, total + 7}
				limits := []int{-1, 0, 1, 1 + rng.Intn(8), math.MaxInt}
				offset, limit := offsets[rng.Intn(len(offsets))], limits[rng.Intn(len(limits))]
				wantPage, wantTotal := ref.list(f, offset, limit)
				page, gotTotal := c.List(f, offset, limit)
				if gotTotal != wantTotal || !reflect.DeepEqual(page, wantPage) {
					t.Fatalf("seed %d step %d: List(%+v, %d, %d) = %d entries of %d, want %d of %d",
						seed, step, f, offset, limit, len(page), gotTotal, len(wantPage), wantTotal)
				}
			}
			th := things[rng.Intn(len(things))]
			if got, want := c.Thing(th), ref.thing(th); !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d step %d: Thing(%v) = %v, want %v", seed, step, th, got, want)
			}
			if st := c.Stats(); st.Size != len(ref) || st.Things != ref.things() {
				t.Fatalf("seed %d step %d: Stats size %d things %d, want %d and %d",
					seed, step, st.Size, st.Things, len(ref), ref.things())
			}
		}
	}
}

// catalogListBatch is the number of unfiltered pages one benchmark op
// covers, so a -benchtime 1x run (the CI regression gate) measures a stable
// span.
const catalogListBatch = 200

// BenchmarkCatalogList measures gateway-style listings of a 2000-entry
// catalog registered in random order: each op fetches catalogListBatch
// unfiltered 50-entry pages at random offsets plus one device-filtered page.
func BenchmarkCatalogList(b *testing.B) {
	clk := &fakeClock{}
	c, err := New(Config{TTL: time.Hour, Now: clk.Now})
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	const things = 1000
	for _, i := range rng.Perm(2 * things) {
		dev := micropnp.TMP36
		if i >= things {
			dev = micropnp.Relay
		}
		c.Observe(advertAt(addr(i%things), dev, 0))
	}
	offsets := make([]int, catalogListBatch)
	for i := range offsets {
		offsets[i] = rng.Intn(2*things - 50)
	}
	c.List(Filter{}, 0, 50) // the one lazy sort after registration
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, off := range offsets {
			if page, _ := c.List(Filter{}, off, 50); len(page) != 50 {
				b.Fatalf("page at %d holds %d entries", off, len(page))
			}
		}
		if page, total := c.List(Filter{Device: micropnp.Relay}, things/2, 50); len(page) != 50 || total != things {
			b.Fatalf("filtered page holds %d of %d entries", len(page), total)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*(catalogListBatch+1)), "ns/page")
}
