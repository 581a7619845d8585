// Package catalog implements a TTL-leased registry of the Things and
// peripherals a µPnP deployment currently serves — the registry half of the
// gateway+catalog pair (patchwork-toolkit style) that turns the SDK's advert
// flow into a queryable device directory.
//
// Entries are fed from live advertisements (Client.AddAdvertHook → Observe):
// each advert upserts the {Thing, peripheral} entry and refreshes its lease.
// Things advertise on plug-in and in discovery replies — there is no
// periodic keep-alive — so a deployment-facing refresher (the gateway issues
// periodic wildcard discoveries) keeps leases of live peripherals fresh,
// while an unplugged peripheral simply stops appearing in replies and its
// lease runs out: a sweep then removes it, and hot-unplug disappears from
// the catalog without anyone polling the Thing.
//
// Time is virtual time (micropnp.Deployment.Now): leases expire on the
// deployment's clock in both runtime modes, so virtual-mode tests are
// deterministic and realtime TTLs scale with WithTimeScale. The sweep
// goroutine ticks on the wall clock but evaluates leases against the
// virtual clock.
//
// One catalog can front a whole fleet: AddFeed registers one advert source
// per member deployment, each with its own virtual clock, and every entry's
// lease lives and expires on its owning feed's clock (Entry.Feed) — the
// members' independent timelines never cross-contaminate TTLs.
//
// The catalog is safe for concurrent use: reads take an RWMutex snapshot,
// listings are paged and deterministically ordered, and hit/miss/expiry
// counters are atomic.
//
// Costs: beside its map the catalog keeps every key in one slice, ordered by
// (Thing, peripheral) and re-sorted lazily, at most once after each change to
// the key set that breaks the order. A refresh of a known entry is a map
// update. An unfiltered List page costs O(limit), a filtered one a single
// scan of the keys that copies only the page, Thing is a binary search plus
// its entries, and a Sweep compacts the key slice only when it drops
// entries.
package catalog

import (
	"cmp"
	"fmt"
	"net/netip"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"micropnp"
)

// DefaultTTL is the lease duration when Config.TTL is zero: long enough to
// span several gateway refresh rounds, short enough that an unplugged
// peripheral vanishes promptly.
const DefaultTTL = 30 * time.Second

// Entry is one catalogued peripheral on one Thing.
type Entry struct {
	// Thing is the serving Thing's unicast address.
	Thing netip.Addr
	// Device is the peripheral type.
	Device micropnp.DeviceID
	// Name is the Thing's advertised human-readable name ("" when never
	// advertised).
	Name string
	// Units describes the peripheral's values ("" when never advertised).
	Units string
	// Channel is the control-board channel serving the peripheral (-1 when
	// not advertised).
	Channel int
	// FirstSeen/LastSeen are the virtual times of the first and most recent
	// advert for this entry.
	FirstSeen time.Duration
	LastSeen  time.Duration
	// Expires is the lease deadline (virtual time): the entry is dropped by
	// the first sweep after this instant unless an advert refreshes it.
	Expires time.Duration
	// Solicited reports whether the most recent advert was a discovery
	// reply (false: an unsolicited plug-in advertisement).
	Solicited bool
	// Feed is the advert source that owns this entry's lease clock: 0 is
	// the catalog's own Config.Now, higher indices are AddFeed registrations
	// (one per fleet member when the catalog fronts a federation). All the
	// entry's virtual times — FirstSeen, LastSeen, Expires — are instants on
	// that feed's clock.
	Feed int
}

// Key identifies an entry.
type Key struct {
	Thing  netip.Addr
	Device micropnp.DeviceID
}

// Stats is a snapshot of the catalog's counters.
type Stats struct {
	// Size is the number of live entries.
	Size int
	// Things is the number of distinct Things with at least one live entry.
	Things int
	// Observed counts adverts absorbed (upserts + refreshes).
	Observed uint64
	// Hits/Misses count Get and List lookups that did/did not find entries.
	Hits   uint64
	Misses uint64
	// Expired counts entries dropped by sweeps (lease ran out).
	Expired uint64
	// Sweeps counts sweep passes.
	Sweeps uint64
}

// Config configures a catalog.
type Config struct {
	// TTL is the lease duration in virtual time (0 = DefaultTTL). An entry
	// not refreshed by an advert within TTL is removed by the next sweep.
	TTL time.Duration
	// Now is the virtual clock source, normally micropnp.Deployment.Now.
	Now func() time.Duration
}

// Catalog is the lease-based registry. Create with New.
type Catalog struct {
	ttl time.Duration

	// feeds holds one virtual clock per advert source; feed 0 is Config.Now
	// and AddFeed appends the rest. Append-only under feedMu, so feedNow
	// takes only a read lock on the hot observe path.
	feedMu sync.RWMutex
	feeds  []func() time.Duration

	mu      sync.RWMutex
	entries map[Key]Entry
	// keys holds every key of entries, in compareKeys order unless unsorted
	// is set: a new key is appended, and only one landing out of order
	// marks the slice for the next reader to sort (rlockSorted).
	keys     []Key
	unsorted bool

	observed atomic.Uint64
	hits     atomic.Uint64
	misses   atomic.Uint64
	expired  atomic.Uint64
	sweeps   atomic.Uint64
}

// New builds a catalog.
func New(cfg Config) (*Catalog, error) {
	if cfg.Now == nil {
		return nil, fmt.Errorf("catalog: Config.Now (virtual clock source) is required")
	}
	ttl := cfg.TTL
	if ttl <= 0 {
		ttl = DefaultTTL
	}
	return &Catalog{
		ttl:     ttl,
		feeds:   []func() time.Duration{cfg.Now},
		entries: map[Key]Entry{},
	}, nil
}

// TTL returns the configured lease duration.
func (c *Catalog) TTL() time.Duration { return c.ttl }

// Feed is one registered advert source with its own virtual clock; its
// Observe leases entries on that clock. Obtain with Catalog.AddFeed.
type Feed struct {
	c   *Catalog
	idx int
}

// Index returns the feed's index (the Entry.Feed value its entries carry).
func (f *Feed) Index() int { return f.idx }

// Observe absorbs one advert from this feed; the lease rides the feed's own
// clock. Same contract as Catalog.Observe otherwise.
func (f *Feed) Observe(a micropnp.Advert) { f.c.observe(f.idx, a) }

// AddFeed registers an additional advert source whose leases expire on its
// own virtual clock — one feed per member deployment when the catalog fronts
// a fleet, since federated deployments do not share a timeline. Feed indices
// are assigned in registration order starting at 1 (0 is Config.Now).
func (c *Catalog) AddFeed(now func() time.Duration) (*Feed, error) {
	if now == nil {
		return nil, fmt.Errorf("catalog: AddFeed needs a virtual clock source")
	}
	c.feedMu.Lock()
	c.feeds = append(c.feeds, now)
	idx := len(c.feeds) - 1
	c.feedMu.Unlock()
	return &Feed{c: c, idx: idx}, nil
}

// feedNow reads one feed's clock.
func (c *Catalog) feedNow(feed int) time.Duration {
	c.feedMu.RLock()
	now := c.feeds[feed]
	c.feedMu.RUnlock()
	return now()
}

// Observe absorbs one advert: it upserts the {Thing, peripheral} entry and
// refreshes its lease on the catalog's own clock (feed 0). Wire it to the
// advert flow with client.AddAdvertHook(cat.Observe). Safe for concurrent
// use; must not block (it runs on the delivering goroutine).
func (c *Catalog) Observe(a micropnp.Advert) { c.observe(0, a) }

func (c *Catalog) observe(feed int, a micropnp.Advert) {
	k := Key{Thing: a.Thing, Device: a.Device}
	now := c.feedNow(feed)
	c.observed.Add(1)
	c.mu.Lock()
	e, ok := c.entries[k]
	if !ok {
		e = Entry{Thing: a.Thing, Device: a.Device, Channel: -1, FirstSeen: a.At}
		if n := len(c.keys); !c.unsorted && n > 0 && compareKeys(c.keys[n-1], k) > 0 {
			c.unsorted = true
		}
		c.keys = append(c.keys, k)
	}
	// Adverts may omit optional TLVs; never let a terse refresh erase
	// metadata a richer advert already provided.
	if a.Name != "" {
		e.Name = a.Name
	}
	if a.Units != "" {
		e.Units = a.Units
	}
	if a.Channel >= 0 {
		e.Channel = a.Channel
	}
	e.LastSeen = a.At
	e.Expires = now + c.ttl
	e.Solicited = a.Solicited
	e.Feed = feed
	c.entries[k] = e
	c.mu.Unlock()
}

// Get returns the live entry for a {Thing, peripheral} pair. An entry whose
// lease already ran out but which no sweep collected yet still counts as
// live — expiry is the sweep's job, so reads stay cheap and monotone.
func (c *Catalog) Get(thing netip.Addr, device micropnp.DeviceID) (Entry, bool) {
	c.mu.RLock()
	e, ok := c.entries[Key{Thing: thing, Device: device}]
	c.mu.RUnlock()
	if ok {
		c.hits.Add(1)
	} else {
		c.misses.Add(1)
	}
	return e, ok
}

// compareKeys orders keys by Thing address, then peripheral type: the
// order of every listing.
func compareKeys(a, b Key) int {
	if c := a.Thing.Compare(b.Thing); c != 0 {
		return c
	}
	return cmp.Compare(a.Device, b.Device)
}

// rlockSorted read-locks the catalog with c.keys in order, sorting them
// first when a new key landed out of order since the last sort. A writer
// can slip in between the sort and the read lock, hence the loop.
func (c *Catalog) rlockSorted() {
	c.mu.RLock()
	for c.unsorted {
		c.mu.RUnlock()
		c.mu.Lock()
		if c.unsorted {
			slices.SortFunc(c.keys, compareKeys)
			c.unsorted = false
		}
		c.mu.Unlock()
		c.mu.RLock()
	}
}

// Thing returns every live entry of one Thing, ordered by peripheral type:
// a binary search over the ordered keys, then one lookup per entry.
func (c *Catalog) Thing(thing netip.Addr) []Entry {
	c.rlockSorted()
	i, _ := slices.BinarySearchFunc(c.keys, thing, func(k Key, t netip.Addr) int { return k.Thing.Compare(t) })
	var out []Entry
	for _, k := range c.keys[i:] {
		if k.Thing != thing {
			break
		}
		out = append(out, c.entries[k])
	}
	c.mu.RUnlock()
	if len(out) == 0 {
		c.misses.Add(1)
		return nil
	}
	c.hits.Add(1)
	return out
}

// Filter narrows a listing. Zero fields match everything.
type Filter struct {
	// Device keeps entries of one peripheral type (micropnp.AllPeripherals
	// or 0 matches any).
	Device micropnp.DeviceID
	// Units keeps entries whose advertised unit string equals Units.
	Units string
	// Thing keeps entries of one Thing.
	Thing netip.Addr
}

// matchesKey applies the filter's key fields (Device, Thing); Units needs
// the entry.
func (f Filter) matchesKey(k Key) bool {
	if f.Device != 0 && f.Device != micropnp.AllPeripherals && k.Device != f.Device {
		return false
	}
	return !f.Thing.IsValid() || k.Thing == f.Thing
}

// all reports whether the filter matches every entry.
func (f Filter) all() bool {
	return (f.Device == 0 || f.Device == micropnp.AllPeripherals) && f.Units == "" && !f.Thing.IsValid()
}

// List returns one page of the filtered catalog plus the total number of
// matching entries. Entries are ordered by (Thing address, peripheral type);
// each page is a consistent snapshot in that total order, and offset/limit
// select the page (limit <= 0 means everything). A multi-page walk stays
// duplicate-free while the key set is stable or only shrinking — refreshes
// update entries in place and expiries can only shift later pages left
// (skips, never repeats). A registration of a NEW key that sorts before the
// walk's cursor shifts later pages right, so such a walk can legitimately
// see an entry twice; callers that need exactly-once enumeration under
// insert churn should fetch one unpaged snapshot (limit <= 0) instead.
//
// An unfiltered page costs O(limit): it is cut straight from the ordered
// keys. A filtered page is one scan of the keys that counts every match and
// copies only the page's entries. Neither sorts, except for the one lazy
// sort after the key set changed out of order.
func (c *Catalog) List(f Filter, offset, limit int) (page []Entry, total int) {
	offset = max(offset, 0)
	c.rlockSorted()
	if f.all() {
		total = len(c.keys)
		if offset < total {
			end := total
			if limit > 0 && limit < total-offset {
				end = offset + limit
			}
			page = make([]Entry, 0, end-offset)
			for _, k := range c.keys[offset:end] {
				page = append(page, c.entries[k])
			}
		}
	} else {
		for _, k := range c.keys {
			if !f.matchesKey(k) || f.Units != "" && c.entries[k].Units != f.Units {
				continue
			}
			if total >= offset && (limit <= 0 || len(page) < limit) {
				page = append(page, c.entries[k])
			}
			total++
		}
	}
	c.mu.RUnlock()
	if total == 0 {
		c.misses.Add(1)
	} else {
		c.hits.Add(1)
	}
	return page, total
}

// Size returns the number of live entries.
func (c *Catalog) Size() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.entries)
}

// Sweep removes every entry whose lease ran out, returning how many were
// dropped. Each entry's deadline is evaluated against its own feed's clock —
// federated members advance independently, so there is no one "now". Called
// periodically by the Start goroutine; tests may call it directly for
// deterministic expiry.
func (c *Catalog) Sweep() int {
	c.feedMu.RLock()
	nows := make([]time.Duration, len(c.feeds))
	for i, now := range c.feeds {
		nows[i] = now()
	}
	c.feedMu.RUnlock()
	c.sweeps.Add(1)
	c.mu.Lock()
	// DeleteFunc moves keys only from the first drop on, so a sweep that
	// drops nothing leaves the slice untouched; the survivors keep their
	// order.
	n := len(c.keys)
	c.keys = slices.DeleteFunc(c.keys, func(k Key) bool {
		e := c.entries[k]
		if e.Expires > nows[e.Feed] {
			return false
		}
		delete(c.entries, k)
		return true
	})
	dropped := n - len(c.keys)
	c.mu.Unlock()
	if dropped > 0 {
		c.expired.Add(uint64(dropped))
	}
	return dropped
}

// Start launches the sweep goroutine, ticking every interval of wall time
// (leases themselves are evaluated against the virtual clock). It returns a
// stop function; stopping is idempotent and waits for the goroutine to exit.
func (c *Catalog) Start(interval time.Duration) (stop func()) {
	if interval <= 0 {
		interval = time.Second
	}
	done := make(chan struct{})
	exited := make(chan struct{})
	go func() {
		defer close(exited)
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				c.Sweep()
			case <-done:
				return
			}
		}
	}()
	var once sync.Once
	return func() {
		once.Do(func() { close(done) })
		<-exited
	}
}

// Stats returns a snapshot of the counters.
func (c *Catalog) Stats() Stats {
	c.rlockSorted()
	size := len(c.keys)
	things := 0
	for i, k := range c.keys {
		if i == 0 || k.Thing != c.keys[i-1].Thing {
			things++
		}
	}
	c.mu.RUnlock()
	return Stats{
		Size:     size,
		Things:   things,
		Observed: c.observed.Load(),
		Hits:     c.hits.Load(),
		Misses:   c.misses.Load(),
		Expired:  c.expired.Load(),
		Sweeps:   c.sweeps.Load(),
	}
}
