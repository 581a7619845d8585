package micropnp

import (
	"context"
	"fmt"
	"net/netip"
	"time"

	"micropnp/internal/netsim"
)

// Fleet federates several deployments — independent µPnP networks, each
// with its own manager set and address prefix — behind one client surface:
// the paper's single-LAN design scaled to a building of LANs. Requests
// carrying a Thing address route to that Thing's deployment by the 48-bit
// network prefix the address starts with; discovery fans out to every
// deployment and concatenates the answers in deployment order, so fleet
// results are as deterministic as the member deployments' clocks.
//
// Construct the members with distinct WithSite values (site 0 is the
// default) and federate them:
//
//	north, _ := micropnp.NewDeployment(micropnp.WithManagers(2))
//	south, _ := micropnp.NewDeployment(micropnp.WithSite(1), micropnp.WithManagers(2))
//	fleet, _ := micropnp.NewFleet(north, south)
//	r, err := fleet.Read(ctx, thingAddr, micropnp.TMP36) // routes by prefix
//
// A Fleet is safe for concurrent use whenever its member deployments are:
// its own state is immutable after NewFleet, and every call delegates to a
// per-deployment client. Note that each member keeps its own virtual clock —
// the Fleet does not interleave them; drive each deployment (or use the
// loadgen fleet conductor, which steps them round-robin).
type Fleet struct {
	deps     []*Deployment
	clients  []*Client
	byPrefix map[netsim.NetworkPrefix]int
}

// NewFleet federates the given deployments behind one Fleet. Each
// deployment must carry a distinct network prefix (distinct WithSite
// values); a duplicate is a configuration error, since prefix routing could
// not tell the two apart. NewFleet attaches one client node to every
// deployment for the fleet's own traffic.
func NewFleet(deployments ...*Deployment) (*Fleet, error) {
	if len(deployments) == 0 {
		return nil, fmt.Errorf("micropnp: NewFleet needs at least one deployment")
	}
	f := &Fleet{
		deps:     append([]*Deployment(nil), deployments...),
		clients:  make([]*Client, len(deployments)),
		byPrefix: make(map[netsim.NetworkPrefix]int, len(deployments)),
	}
	for i, d := range f.deps {
		if d == nil {
			return nil, fmt.Errorf("micropnp: NewFleet deployment %d is nil", i)
		}
		p := d.prefix
		if j, dup := f.byPrefix[p]; dup {
			return nil, fmt.Errorf("micropnp: deployments %d and %d share network prefix %v — give each a distinct WithSite", j, i, p)
		}
		f.byPrefix[p] = i
		cl, err := d.AddClient()
		if err != nil {
			return nil, err
		}
		f.clients[i] = cl
	}
	return f, nil
}

// Deployments returns the member deployments, in federation order.
func (f *Fleet) Deployments() []*Deployment {
	return append([]*Deployment(nil), f.deps...)
}

// DeploymentFor returns the member deployment owning a Thing address, or
// nil when no member's network prefix matches.
func (f *Fleet) DeploymentFor(thing netip.Addr) *Deployment {
	if i, ok := f.byPrefix[netsim.PrefixFromAddr(thing)]; ok {
		return f.deps[i]
	}
	return nil
}

// route resolves the client for a Thing-addressed request.
func (f *Fleet) route(thing netip.Addr) (*Client, error) {
	if i, ok := f.byPrefix[netsim.PrefixFromAddr(thing)]; ok {
		return f.clients[i], nil
	}
	return nil, fmt.Errorf("%w: %v", ErrNoDeployment, thing)
}

// Read routes a Client.Read to the deployment owning the Thing's prefix.
func (f *Fleet) Read(ctx context.Context, thing netip.Addr, id DeviceID) (Reading, error) {
	cl, err := f.route(thing)
	if err != nil {
		return Reading{}, err
	}
	return cl.Read(ctx, thing, id)
}

// ReadInto routes a Client.ReadInto to the deployment owning the Thing's
// prefix; the scratch-buffer contract is Client.ReadInto's.
func (f *Fleet) ReadInto(ctx context.Context, thing netip.Addr, id DeviceID, scratch []int32) (Reading, error) {
	cl, err := f.route(thing)
	if err != nil {
		return Reading{}, err
	}
	return cl.ReadInto(ctx, thing, id, scratch)
}

// Write routes a Client.Write to the deployment owning the Thing's prefix.
func (f *Fleet) Write(ctx context.Context, thing netip.Addr, id DeviceID, vals []int32) error {
	cl, err := f.route(thing)
	if err != nil {
		return err
	}
	return cl.Write(ctx, thing, id, vals)
}

// Subscribe routes a Client.Subscribe to the deployment owning the Thing's
// prefix. Remember that stream data only flows while that Thing's own
// deployment runs.
func (f *Fleet) Subscribe(ctx context.Context, thing netip.Addr, id DeviceID, onReading func(Reading)) (*Subscription, error) {
	cl, err := f.route(thing)
	if err != nil {
		return nil, err
	}
	return cl.Subscribe(ctx, thing, id, onReading)
}

// Discover multicasts a discovery in every member deployment, in
// federation order, and concatenates the adverts. An empty result is not an
// error. The fan-out is sequential — deployment i+1's window opens after
// deployment i's closed — keeping the combined result order deterministic
// on virtual clocks.
func (f *Fleet) Discover(ctx context.Context, id DeviceID) ([]Advert, error) {
	var all []Advert
	for _, cl := range f.clients {
		got, err := cl.Discover(ctx, id)
		if err != nil {
			return all, err
		}
		all = append(all, got...)
	}
	return all, nil
}

// DiscoverInZone is Discover restricted to a location zone, fanned out
// across the fleet (the same zone number may exist in every deployment).
func (f *Fleet) DiscoverInZone(ctx context.Context, zone uint16, id DeviceID) ([]Advert, error) {
	var all []Advert
	for _, cl := range f.clients {
		got, err := cl.DiscoverInZone(ctx, zone, id)
		if err != nil {
			return all, err
		}
		all = append(all, got...)
	}
	return all, nil
}

// Things returns the distinct Things that advertised a peripheral type to
// the fleet's clients, concatenated in federation order.
func (f *Fleet) Things(id DeviceID) []netip.Addr {
	var all []netip.Addr
	for _, cl := range f.clients {
		all = append(all, cl.Things(id)...)
	}
	return all
}

// AddAdvertHook registers an advertisement listener on every member
// deployment's fleet client — one unified advert flow for catalogs and
// monitors fronting the whole fleet. The hook runs on whichever
// deployment's goroutine delivers the advert and must not block; use
// Advert.Thing's prefix (DeploymentFor) to attribute it.
func (f *Fleet) AddAdvertHook(fn func(Advert)) {
	for _, cl := range f.clients {
		cl.AddAdvertHook(fn)
	}
}

// Quiesce drains every member deployment (Deployment.Quiesce, same
// horizon), in federation order, reporting whether all of them drained.
func (f *Fleet) Quiesce(horizon time.Duration) bool {
	all := true
	for _, d := range f.deps {
		if !d.Quiesce(horizon) {
			all = false
		}
	}
	return all
}

// Stats sums the member deployments' network counters into one fleet-wide
// snapshot (ShardLanes is the sum of member lane counts).
func (f *Fleet) Stats() NetworkStats {
	var total NetworkStats
	for _, d := range f.deps {
		s := d.NetworkStats()
		total.UnicastSent += s.UnicastSent
		total.MulticastSent += s.MulticastSent
		total.Transmissions += s.Transmissions
		total.Delivered += s.Delivered
		total.Lost += s.Lost
		total.NoHandler += s.NoHandler
		total.ShardLanes += s.ShardLanes
		total.ShardRounds += s.ShardRounds
		total.ShardEvents += s.ShardEvents
		total.ShardLaneRounds += s.ShardLaneRounds
		total.ShardCrossMerged += s.ShardCrossMerged
		total.ShardCausalityViolations += s.ShardCausalityViolations
	}
	return total
}
