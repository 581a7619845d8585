package netsim

import (
	"fmt"
	"net/netip"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// rtNet builds a heavily accelerated realtime network so virtual seconds
// pass in wall milliseconds.
func rtNet(t *testing.T, cfg Config) *Network {
	t.Helper()
	cfg.Realtime = true
	if cfg.TimeScale == 0 {
		cfg.TimeScale = 2000
	}
	n := New(cfg)
	t.Cleanup(n.Close)
	return n
}

func TestRealtimeSchedulesInTimestampOrder(t *testing.T) {
	// One worker serializes dispatch, so the recorded order is exactly the
	// loop's timestamp-ordered pop order. Each delay is measured from its
	// own Schedule call, so the four calls must finish within one 100 ms
	// spacing of wall time: at TimeScale 20 that is 5 ms, which a slow
	// Schedule under the race detector still meets (at 2000 it was 50 us).
	n := rtNet(t, Config{Workers: 1, TimeScale: 20})
	var mu sync.Mutex
	var got []int
	// Schedule out of order; the loop must fire them by virtual timestamp.
	delays := []time.Duration{400 * time.Millisecond, 100 * time.Millisecond, 300 * time.Millisecond, 200 * time.Millisecond}
	order := []int{3, 0, 2, 1} // index sorted by delay
	for i, d := range delays {
		i := i
		n.Schedule(d, func() {
			mu.Lock()
			got = append(got, i)
			mu.Unlock()
		})
	}
	n.RunUntilIdle(0)
	mu.Lock()
	defer mu.Unlock()
	if len(got) != len(delays) {
		t.Fatalf("fired %d events, want %d", len(got), len(delays))
	}
	for k, want := range []int{1, 3, 2, 0} {
		if got[k] != want {
			t.Fatalf("fire order %v, want %v (delay-sorted %v)", got, []int{1, 3, 2, 0}, order)
		}
	}
}

func TestRealtimeCancelPreventsFiring(t *testing.T) {
	n := rtNet(t, Config{})
	var fired atomic.Int32
	cancel := scheduleFn(n, 500*time.Millisecond, func() { fired.Add(1) })
	cancel()
	cancel()                           // idempotent
	n.Schedule(time.Second, func() {}) // a later marker event
	n.RunUntilIdle(0)
	if fired.Load() != 0 {
		t.Fatal("cancelled event fired")
	}
}

func TestRealtimeWaitIdleDrainsCascades(t *testing.T) {
	n := rtNet(t, Config{})
	var fired atomic.Int32
	// A chain: each event schedules the next, five deep.
	var step func(k int)
	step = func(k int) {
		fired.Add(1)
		if k < 5 {
			n.Schedule(50*time.Millisecond, func() { step(k + 1) })
		}
	}
	n.Schedule(50*time.Millisecond, func() { step(1) })
	n.RunUntilIdle(0)
	if got := fired.Load(); got != 5 {
		t.Fatalf("cascade fired %d events before idle, want 5", got)
	}
}

func TestRealtimeNowAdvancesWithScale(t *testing.T) {
	n := rtNet(t, Config{TimeScale: 1000})
	start := n.Now()
	time.Sleep(5 * time.Millisecond)
	if adv := n.Now() - start; adv < 4*time.Second {
		t.Fatalf("virtual clock advanced only %v over 5ms wall at scale 1000", adv)
	}
}

func TestRealtimeDelivery(t *testing.T) {
	n := rtNet(t, Config{})
	root, err := n.AddNode(netip.MustParseAddr("2001:db8::1"), nil)
	if err != nil {
		t.Fatal(err)
	}
	leaf, err := n.AddNode(netip.MustParseAddr("2001:db8::2"), root)
	if err != nil {
		t.Fatal(err)
	}
	type arrival struct {
		payload string // copied in-handler: Payload is borrowed
		hops    int
	}
	got := make(chan arrival, 1)
	leaf.Bind(func(m Message) { got <- arrival{string(m.Payload), m.Hops} })
	root.Send(leaf.Addr(), []byte("hi"))
	select {
	case m := <-got:
		if m.payload != "hi" || m.hops != 1 {
			t.Fatalf("delivered %q over %d hops", m.payload, m.hops)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("delivery never arrived on the wall clock")
	}
	n.RunUntilIdle(0)
	if s := n.Stats(); s.Delivered != 1 || s.UnicastSent != 1 {
		t.Fatalf("stats %+v", s)
	}
}

func TestRealtimeConcurrentSendersAndHandlers(t *testing.T) {
	n := rtNet(t, Config{})
	root, err := n.AddNode(netip.MustParseAddr("2001:db8::1"), nil)
	if err != nil {
		t.Fatal(err)
	}
	var handled atomic.Int32
	root.Bind(func(m Message) { handled.Add(1) })
	const senders, per = 16, 25
	nodes := make([]*Node, senders)
	for i := range nodes {
		nd, err := n.AddNode(netip.MustParseAddr(fmt.Sprintf("2001:db8::1%02x", i)), root)
		if err != nil {
			t.Fatal(err)
		}
		nodes[i] = nd
	}
	var wg sync.WaitGroup
	for _, nd := range nodes {
		nd := nd
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < per; k++ {
				nd.Send(root.Addr(), []byte{byte(k)})
			}
		}()
	}
	wg.Wait()
	n.RunUntilIdle(0)
	if got := handled.Load(); got != senders*per {
		t.Fatalf("handled %d datagrams, want %d", got, senders*per)
	}
	if s := n.Stats(); s.UnicastSent != senders*per || s.Delivered != senders*per {
		t.Fatalf("stats %+v", s)
	}
}

func TestRealtimeStepIsNoop(t *testing.T) {
	n := rtNet(t, Config{})
	if n.Step() {
		t.Fatal("Step must report false on the realtime clock")
	}
}

func TestRealtimeRunUntilSleepsToDeadline(t *testing.T) {
	n := rtNet(t, Config{TimeScale: 5000})
	deadline := n.Now() + 10*time.Second
	n.RunUntil(deadline)
	if now := n.Now(); now < deadline {
		t.Fatalf("RunUntil returned at %v, before deadline %v", now, deadline)
	}
}

func TestRealtimeCloseStopsGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	n := New(Config{Realtime: true, TimeScale: 1000, Workers: 4})
	n.Schedule(time.Hour, func() {}) // far-future event is discarded by Close
	n.Close()
	n.Close() // idempotent
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if got := runtime.NumGoroutine(); got > before {
		t.Fatalf("%d goroutines still alive after Close (started with %d)", got, before)
	}
}

func TestRealtimeScheduleAfterCloseIsNoop(t *testing.T) {
	n := New(Config{Realtime: true, TimeScale: 1000})
	n.Close()
	var fired atomic.Int32
	n.Schedule(0, func() { fired.Add(1) })
	ref := n.ScheduleExpiry(0, fnExpirer{}, 0, func() { fired.Add(1) })
	ref.Cancel()
	time.Sleep(20 * time.Millisecond)
	if fired.Load() != 0 {
		t.Fatal("event fired on a stopped clock")
	}
}

// TestRealtimeHandlerSwap flips a node between Bind and Unbind on one
// goroutine while another unicasts to it on the realtime clock, whose pool
// workers load the node's handler concurrently with the flips. Every copy
// that survives the link counts as exactly one of Delivered or NoHandler,
// and a handler runs after its Unbind returned only for an arrival that had
// already loaded it: at most one per pool worker.
func TestRealtimeHandlerSwap(t *testing.T) {
	const workers, sends = 4, 4000
	n := rtNet(t, Config{Workers: workers, LossRate: 0.1})
	src, err := n.AddNode(addr("2001:db8::1"), nil)
	if err != nil {
		t.Fatal(err)
	}
	dst, err := n.AddNode(addr("2001:db8::2"), src)
	if err != nil {
		t.Fatal(err)
	}
	type binding struct {
		unbound atomic.Bool
		late    atomic.Int32 // calls that started after Unbind returned
	}
	var (
		calls    atomic.Int64
		done     atomic.Bool
		bindings []*binding // appended by the flipper only
		wg       sync.WaitGroup
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		for !done.Load() {
			b := &binding{}
			bindings = append(bindings, b)
			dst.Bind(func(Message) {
				calls.Add(1)
				if b.unbound.Load() {
					b.late.Add(1)
				}
			})
			runtime.Gosched()
			dst.Unbind()
			b.unbound.Store(true)
			runtime.Gosched()
		}
	}()
	for i := 0; i < sends; i++ {
		src.Send(dst.Addr(), []byte{byte(i)})
		if i%200 == 199 {
			n.RunUntilIdle(0)
		}
	}
	done.Store(true)
	wg.Wait()
	n.RunUntilIdle(0)

	s := n.Stats()
	if s.UnicastSent != sends || s.Lost == 0 {
		t.Fatalf("stats %+v: want %d sends and some loss", s, sends)
	}
	if s.Delivered+s.NoHandler != s.UnicastSent-s.Lost {
		t.Fatalf("delivered %d + no handler %d != %d copies not lost", s.Delivered, s.NoHandler, s.UnicastSent-s.Lost)
	}
	if s.Delivered == 0 || s.NoHandler == 0 {
		t.Fatalf("stats %+v: the flips never raced the arrivals", s)
	}
	if got := calls.Load(); got != int64(s.Delivered) {
		t.Fatalf("%d handler calls, Delivered %d", got, s.Delivered)
	}
	for g, b := range bindings {
		if late := b.late.Load(); late > workers {
			t.Fatalf("binding %d ran %d times after its Unbind returned (at most %d workers held it)", g, late, workers)
		}
	}
}
