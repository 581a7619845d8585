package core

import (
	"testing"

	"micropnp/internal/client"
	"micropnp/internal/hw"
)

// TestAdvertViewBoundedUnderRepeatedDiscovery runs rounds of wildcard
// discovery across a zoned deployment on two shard workers. Every round's
// replies refresh the client's advert view in place: its size stays the
// number of advertised (Thing, peripheral) pairs, however many rounds ran.
func TestAdvertViewBoundedUnderRepeatedDiscovery(t *testing.T) {
	const things, zones = 32, 4
	d, err := NewDeployment(DeploymentConfig{Zones: zones, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
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
		var got []client.Advert
		cl.Discover(hw.DeviceIDAllPeripherals, 0, func(as []client.Advert) { got = as })
		d.Run()
		if len(got) != things {
			t.Fatalf("round %d: discovery collected %d adverts, want %d", k, len(got), things)
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
	if st, ok := d.Network.ShardStats(); !ok || st.LaneRounds <= st.Rounds {
		t.Fatalf("no parallel rounds ran: %+v", st)
	}
}
