package thing

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"micropnp/internal/bus"
	"micropnp/internal/driver"
	"micropnp/internal/hw"
	"micropnp/internal/netsim"
	"micropnp/internal/proto"
)

// TestThingEventsSerializeOnRealtimeClock drives every kind of Thing event
// at once on the realtime clock, whose worker pool runs handlers and timers
// in parallel: four clients send interleaved reads, writes and stream
// requests while another goroutine unplugs and re-plugs the peripheral and,
// after each re-plug, removes its driver and uploads it again. Under the
// race detector an event that touches Thing state outside mu is a reported
// race. Once the traffic stops and the drain has passed every pending-read
// expiry and two stream periods, no read is pending and every open stream
// has a driver runtime serving it.
func TestThingEventsSerializeOnRealtimeClock(t *testing.T) {
	const (
		clients  = 4
		requests = 200
		cycles   = 20
		period   = time.Second
	)
	n := netsim.New(netsim.Config{Realtime: true, TimeScale: 1000, Workers: 4})
	defer n.Close()
	root, err := n.AddNode(addr("2001:db8::1"), nil)
	if err != nil {
		t.Fatal(err)
	}
	root.Bind(func(netsim.Message) {})
	th, err := New(Config{Network: n, Addr: addr("2001:db8::2"), Parent: root,
		Manager: root.Addr(), StreamPeriod: period})
	if err != nil {
		t.Fatal(err)
	}
	code := tmp36Source(t)
	if err := th.InstallDriver(driver.IDTMP36, code); err != nil {
		t.Fatal(err)
	}
	p, err := hw.NewPeripheral(hw.PeripheralSpec{ID: driver.IDTMP36, Bus: hw.BusADC})
	if err != nil {
		t.Fatal(err)
	}
	env := bus.NewEnvironment()
	if err := th.Plug(0, p, &adcDevice{env: env}); err != nil {
		t.Fatal(err)
	}
	// pace lets the clock run on for d of virtual time.
	pace := func(d time.Duration) { n.RunUntil(n.Now() + d) }
	pace(time.Second)

	encode := func(m *proto.Message) []byte {
		b, err := m.Encode()
		if err != nil {
			t.Error(err)
		}
		return b
	}
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		nd, err := n.AddNode(addr(fmt.Sprintf("2001:db8::%x", 0x10+c)), root)
		if err != nil {
			t.Fatal(err)
		}
		nd.Bind(func(netsim.Message) {})
		// A member keeps the stream open, so the stream table stays busy.
		nd.JoinGroup(netsim.StreamGroup(th.Addr(), 0))
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < requests; i++ {
				m := &proto.Message{Seq: uint16(i), DeviceID: driver.IDTMP36}
				switch (c + i) % 3 {
				case 0:
					m.Type = proto.MsgRead
				case 1:
					m.Type, m.Data = proto.MsgWrite, proto.AppendValues32(nil, []int32{int32(i)})
				case 2:
					m.Type = proto.MsgStream
				}
				nd.Send(th.Addr(), encode(m))
				pace(time.Millisecond)
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < cycles; i++ {
			if err := th.Unplug(0); err != nil {
				t.Errorf("cycle %d: unplug: %v", i, err)
				return
			}
			pace(50 * time.Millisecond)
			if err := th.Plug(0, p, &adcDevice{env: env}); err != nil {
				t.Errorf("cycle %d: plug: %v", i, err)
				return
			}
			pace(50 * time.Millisecond)
			root.Send(th.Addr(), encode(&proto.Message{Type: proto.MsgDriverRemovalReq, Seq: uint16(2 * i), DeviceID: driver.IDTMP36}))
			pace(50 * time.Millisecond)
			root.Send(th.Addr(), encode(&proto.Message{Type: proto.MsgDriverUpload, Seq: uint16(2*i + 1), DeviceID: driver.IDTMP36, Driver: code}))
			pace(50 * time.Millisecond)
		}
	}()
	wg.Wait()
	drain := max(PendingReadTimeout, 2*period) + time.Second
	pace(drain)

	th.mu.Lock()
	var reads int
	for _, q := range th.pending {
		reads += len(q)
	}
	var unserved []hw.DeviceID
	for id := range th.streams {
		if th.slotFor(id) == nil {
			unserved = append(unserved, id)
		}
	}
	th.mu.Unlock()
	if reads != 0 {
		t.Errorf("%d reads still pending %v after the last request", reads, drain)
	}
	if len(unserved) != 0 {
		t.Errorf("streams of %v are open, but no driver runtime serves them", unserved)
	}
}
