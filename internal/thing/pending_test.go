package thing

import (
	"testing"

	"micropnp/internal/bus"
	"micropnp/internal/driver"
	"micropnp/internal/hw"
	"micropnp/internal/netsim"
	"micropnp/internal/proto"
)

type rfidDevice struct{}

func (rfidDevice) Attach(ic *Interconnects) error {
	bus.NewID20LA(ic.UART)
	return nil
}
func (rfidDevice) Detach(*Interconnects) {}

// rfidBed is a test bed whose Thing serves an ID-20LA reader with no card
// presented, so every read stays pending until its expiry.
func rfidBed(t *testing.T) *testBed {
	t.Helper()
	tb := newTestBed(t)
	repo, err := driver.StandardRepository()
	if err != nil {
		t.Fatal(err)
	}
	e, ok := repo.Lookup(driver.IDID20LA)
	if !ok {
		t.Fatal("ID-20LA driver missing")
	}
	if err := tb.thing.InstallDriver(driver.IDID20LA, e.Bytecode); err != nil {
		t.Fatal(err)
	}
	p, err := hw.NewPeripheral(hw.PeripheralSpec{ID: driver.IDID20LA, Bus: hw.BusUART})
	if err != nil {
		t.Fatal(err)
	}
	if err := tb.thing.Plug(0, p, rfidDevice{}); err != nil {
		t.Fatal(err)
	}
	tb.net.RunUntilIdle(0)
	return tb
}

// pendRead hands the Thing a read request and returns the entry it queued
// with the expiry key its armed deadline carries.
func pendRead(t *testing.T, th *Thing) (*pendingRead, uint64) {
	t.Helper()
	req, err := (&proto.Message{Type: proto.MsgRead, Seq: 1, DeviceID: driver.IDID20LA}).Encode()
	if err != nil {
		t.Fatal(err)
	}
	th.handle(netsim.Message{Src: addr("2001:db8::99"), Dst: th.Addr(), Payload: req})
	th.mu.Lock()
	defer th.mu.Unlock()
	q := th.pending[driver.IDID20LA]
	if len(q) != 1 {
		t.Fatalf("%d pending reads, want 1", len(q))
	}
	return q[0], uint64(uint32(driver.IDID20LA)) | q[0].gen<<32
}

// TestPendingReadEntriesStayWithTheirThing pins that a pending-read entry
// one Thing released is never handed to another Thing. Its generation is
// guarded by its own Thing's mu only, so a shared entry lets a late
// expiry on the first Thing read the generation the second Thing writes
// under a different lock: a data race, and an entry that answers for the
// wrong Thing. Here B's late expiry runs on another goroutine while A
// expires its own read, which the race detector reports when the entry is
// shared.
func TestPendingReadEntriesStayWithTheirThing(t *testing.T) {
	a, b := rfidBed(t), rfidBed(t)
	for i := 0; i < 8; i++ {
		prB, keyB := pendRead(t, b.thing)
		b.thing.ExpireEvent(keyB, prB)
		prA, keyA := pendRead(t, a.thing)
		done := make(chan struct{})
		go func() {
			defer close(done)
			b.thing.ExpireEvent(keyB, prB) // late: the read already expired
		}()
		a.thing.ExpireEvent(keyA, prA)
		<-done
		if prA == prB {
			t.Fatalf("round %d: Thing A reuses the pending-read entry Thing B released", i)
		}
	}
}
