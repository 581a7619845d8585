package core

import (
	"runtime"
	"testing"
	"time"

	"micropnp/internal/netsim"
)

// netSentinel is a leaf object that only the network references, through a
// handler bound on one of its nodes, so it becomes collectable exactly when
// the network does. A finalizer on the Network itself would never run: the
// clock's barrier hook points back at the network, and the runtime does not
// finalize objects that are part of a reference cycle.
type netSentinel struct{ hits *int }

// TestDroppedZonedDeploymentIsCollected drops a zoned deployment whose rounds
// ran on two shard workers without calling Close: once nothing references
// it, its network must be garbage collected. The shard helpers outlive the
// deployment's last call, so they must not pin its clock (and through the
// clock the whole network).
func TestDroppedZonedDeploymentIsCollected(t *testing.T) {
	collected := make(chan struct{})
	func() {
		d, err := NewDeployment(DeploymentConfig{Zones: 8, Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		buildZonedScale(t, d, 64, 8)
		d.Run()
		if st, ok := d.Network.ShardStats(); !ok || st.LaneRounds <= st.Rounds {
			t.Fatalf("no parallel rounds ran: %+v", st)
		}
		node, err := d.Network.AddNode(d.nextAddr(), nil)
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
