package micropnp

import (
	"net/netip"

	"micropnp/internal/hw"
	"micropnp/internal/netsim"
)

// GidCalls returns how many goroutine-id lookups the SDK has made so far in
// this process.
func GidCalls() int64 { return gidCalls.Load() }

// AddPeerNode attaches a bare network node one hop from the manager, for
// tests that script a peer by hand.
func (d *Deployment) AddPeerNode(addr netip.Addr) (*netsim.Node, error) {
	return d.net.AddNode(addr, d.border.Node())
}

// InGroup reports whether the Thing's node is a member of a peripheral
// type's multicast group.
func (t *Thing) InGroup(id DeviceID) bool {
	return t.th.Node().InGroup(netsim.MulticastAddr(t.d.prefix, hw.DeviceID(id)))
}
