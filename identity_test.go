package micropnp_test

import (
	"context"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"micropnp"
	"micropnp/internal/catalog"
	"micropnp/internal/gateway"
)

// identityCalls is the number of SDK calls each zero-lookup check makes.
const identityCalls = 50

// TestUncontendedCallsSkipGoroutineID pins that a virtual-mode SDK call
// nobody contends for never looks up its goroutine id: Read, ReadInto,
// Write and Discover elect themselves driver with one TryLock and step the
// simulator without asking who they are.
func TestUncontendedCallsSkipGoroutineID(t *testing.T) {
	d, err := micropnp.NewDeployment()
	if err != nil {
		t.Fatal(err)
	}
	th := plugFleet(t, d, 1)[0]
	if _, err := th.PlugRelay(1); err != nil {
		t.Fatal(err)
	}
	cl, err := d.AddClient()
	if err != nil {
		t.Fatal(err)
	}
	d.Run()

	ctx := context.Background()
	before := micropnp.GidCalls()
	var buf []int32
	for i := 0; i < identityCalls; i++ {
		if _, err := cl.Read(ctx, th.Addr(), micropnp.TMP36); err != nil {
			t.Fatalf("Read: %v", err)
		}
		r, err := cl.ReadInto(ctx, th.Addr(), micropnp.TMP36, buf)
		if err != nil {
			t.Fatalf("ReadInto: %v", err)
		}
		buf = r.Values
		if err := cl.Write(ctx, th.Addr(), micropnp.Relay, []int32{int32(i & 0xff)}); err != nil {
			t.Fatalf("Write: %v", err)
		}
		if ads, err := cl.Discover(ctx, micropnp.TMP36); err != nil || len(ads) == 0 {
			t.Fatalf("Discover = %d adverts, %v", len(ads), err)
		}
	}
	if n := micropnp.GidCalls() - before; n != 0 {
		t.Fatalf("%d goroutine-id lookups across %d uncontended rounds of calls, want 0", n, identityCalls)
	}
}

// TestGatewayReadsSkipGoroutineID is the same check one layer up: reads
// through the HTTP gateway's handler, with a catalog fed by an advert hook
// as in a real gateway, look up no goroutine id either.
func TestGatewayReadsSkipGoroutineID(t *testing.T) {
	d, err := micropnp.NewDeployment()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.Close)
	things := plugFleet(t, d, 4)
	cl, err := d.AddClient()
	if err != nil {
		t.Fatal(err)
	}
	cat, err := catalog.New(catalog.Config{TTL: time.Hour, Now: d.Now})
	if err != nil {
		t.Fatal(err)
	}
	cl.AddAdvertHook(cat.Observe)
	d.Run()
	srv, err := gateway.New(gateway.Config{Deployment: d, Client: cl, Catalog: cat})
	if err != nil {
		t.Fatal(err)
	}

	before := micropnp.GidCalls()
	for i := 0; i < identityCalls; i++ {
		th := things[i%len(things)]
		req := httptest.NewRequest(http.MethodGet, "/things/"+th.Addr().String()+"/read?peripheral=tmp36", nil)
		w := httptest.NewRecorder()
		srv.ServeHTTP(w, req)
		if w.Code != http.StatusOK {
			t.Fatalf("read status %d: %s", w.Code, w.Body)
		}
	}
	if n := micropnp.GidCalls() - before; n != 0 {
		t.Fatalf("%d goroutine-id lookups across %d gateway reads, want 0", n, identityCalls)
	}
}

// TestForeignCallDuringConductCompletes covers the goroutine-id fallback
// that remains for calls outside a strand: an SDK call made on a goroutine
// that is not a strand, while a Conduct runs, must find it is no strand,
// park while the orchestrator steps the simulator, and complete.
func TestForeignCallDuringConductCompletes(t *testing.T) {
	d, err := micropnp.NewDeployment()
	if err != nil {
		t.Fatal(err)
	}
	th := plugFleet(t, d, 1)[0]
	cl, err := d.AddClient()
	if err != nil {
		t.Fatal(err)
	}
	d.Run()

	started := make(chan struct{})
	finished := make(chan struct{})
	var done atomic.Bool
	var readErr error
	go func() {
		defer close(finished)
		<-started
		_, readErr = cl.Read(context.Background(), th.Addr(), micropnp.TMP36)
		done.Store(true)
	}()
	wallLimit := time.Now().Add(30 * time.Second)
	d.Conduct(func(s *micropnp.Strand) {
		close(started)
		for !done.Load() && time.Now().Before(wallLimit) {
			s.Until(s.Now() + 10*time.Millisecond)
		}
	})
	if !done.Load() {
		t.Fatal("a foreign call made while a Conduct ran did not complete")
	}
	<-finished
	if readErr != nil {
		t.Fatalf("foreign read: %v", readErr)
	}
}
