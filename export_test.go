package micropnp

import (
	"net/netip"

	"micropnp/internal/netsim"
)

// GidCalls returns how many goroutine-id lookups the SDK has made so far in
// this process.
func GidCalls() int64 { return gidCalls.Load() }

// AddPeerNode attaches a bare network node one hop from the manager, for
// tests that script a peer by hand.
func (d *Deployment) AddPeerNode(addr netip.Addr) (*netsim.Node, error) {
	return d.core.Network.AddNode(addr, d.core.Manager.Node())
}
