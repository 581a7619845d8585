package netsim

import (
	"sync"
	"testing"
	"time"
)

// expRecorder records ExpireEvent invocations.
type expRecorder struct {
	mu   sync.Mutex
	seqs []uint64
	toks []any
}

func (r *expRecorder) ExpireEvent(seq uint64, tok any) {
	r.mu.Lock()
	r.seqs = append(r.seqs, seq)
	r.toks = append(r.toks, tok)
	r.mu.Unlock()
}

// fnExpirer runs its token, a func(), when the expiry fires.
type fnExpirer struct{}

func (fnExpirer) ExpireEvent(_ uint64, tok any) { tok.(func())() }

// scheduleFn arms a typed expiry that runs fn and returns its cancel.
func scheduleFn(n *Network, delay time.Duration, fn func()) (cancel func()) {
	return n.ScheduleExpiry(delay, fnExpirer{}, 0, fn).Cancel
}

func TestScheduleExpiryFiresTyped(t *testing.T) {
	n := New(Config{})
	rec := &expRecorder{}
	tok := &struct{ x int }{42}
	n.ScheduleExpiry(time.Second, rec, 7, tok)
	n.RunUntilIdle(0)
	if len(rec.seqs) != 1 || rec.seqs[0] != 7 || rec.toks[0] != tok {
		t.Fatalf("expiry fired %v/%v, want seq 7 with the token", rec.seqs, rec.toks)
	}
	if n.Now() != time.Second {
		t.Fatalf("clock = %v, want 1s", n.Now())
	}
}

func TestScheduleExpiryCancel(t *testing.T) {
	n := New(Config{})
	rec := &expRecorder{}
	ref := n.ScheduleExpiry(time.Second, rec, 1, nil)
	n.Schedule(100*time.Millisecond, func() {})
	ref.Cancel()
	ref.Cancel() // idempotent
	n.RunUntilIdle(0)
	if len(rec.seqs) != 0 {
		t.Fatal("cancelled expiry must not fire")
	}
	if n.Now() != 100*time.Millisecond {
		t.Fatalf("clock = %v; a cancelled expiry must not advance virtual time", n.Now())
	}
}

func TestScheduleExpiryCancelAfterFireNoop(t *testing.T) {
	n := New(Config{})
	rec := &expRecorder{}
	ref := n.ScheduleExpiry(time.Millisecond, rec, 1, nil)
	n.RunUntilIdle(0)
	if len(rec.seqs) != 1 {
		t.Fatalf("fired %d", len(rec.seqs))
	}
	ref.Cancel() // post-fire: no-op
	// The freelist recycled the event; a fresh expiry must be unaffected by
	// the stale ref (generation guard).
	n.ScheduleExpiry(time.Millisecond, rec, 2, nil)
	ref.Cancel()
	n.RunUntilIdle(0)
	if len(rec.seqs) != 2 || rec.seqs[1] != 2 {
		t.Fatalf("stale ref disturbed a recycled event: seqs = %v", rec.seqs)
	}
}

func TestExpiryRefZeroValueInert(t *testing.T) {
	var ref ExpiryRef
	ref.Cancel() // must not panic
}

func TestScheduleExpiryRealtime(t *testing.T) {
	n := New(Config{Realtime: true, TimeScale: 1000})
	defer n.Close()
	rec := &expRecorder{}
	done := make(chan struct{})
	n.ScheduleExpiry(50*time.Millisecond, doneExpirer{rec, done}, 9, "tok")
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("realtime expiry never fired")
	}
	rec.mu.Lock()
	defer rec.mu.Unlock()
	if len(rec.seqs) != 1 || rec.seqs[0] != 9 || rec.toks[0] != "tok" {
		t.Fatalf("fired %v/%v", rec.seqs, rec.toks)
	}
}

type doneExpirer struct {
	rec  *expRecorder
	done chan struct{}
}

func (d doneExpirer) ExpireEvent(seq uint64, tok any) {
	d.rec.ExpireEvent(seq, tok)
	close(d.done)
}

func TestScheduleExpiryRealtimeCancel(t *testing.T) {
	n := New(Config{Realtime: true, TimeScale: 100})
	rec := &expRecorder{}
	ref := n.ScheduleExpiry(10*time.Second, rec, 1, nil)
	ref.Cancel()
	n.RunUntilIdle(0) // WaitIdle: the cancelled event must not keep it busy
	n.Close()
	rec.mu.Lock()
	defer rec.mu.Unlock()
	if len(rec.seqs) != 0 {
		t.Fatal("cancelled realtime expiry fired")
	}
}

func TestScheduleExpiryStoppedRealtimeInert(t *testing.T) {
	n := New(Config{Realtime: true})
	n.Close()
	rec := &expRecorder{}
	ref := n.ScheduleExpiry(time.Millisecond, rec, 1, nil)
	ref.Cancel() // inert zero ref: must not panic
	if len(rec.seqs) != 0 {
		t.Fatal("expiry fired on a stopped clock")
	}
}

// TestScheduleExpiryAllocFree asserts the whole point of the typed path:
// arming and cancelling a deadline allocates nothing once the freelist is
// warm (tok is a reused pointer, as in the client's pooled pending entries).
func TestScheduleExpiryAllocFree(t *testing.T) {
	n := New(Config{})
	rec := &expRecorder{}
	tok := &struct{ x int }{}
	// Warm the freelist.
	n.ScheduleExpiry(time.Millisecond, rec, 0, tok).Cancel()
	allocs := testing.AllocsPerRun(100, func() {
		ref := n.ScheduleExpiry(time.Millisecond, rec, 1, tok)
		ref.Cancel()
	})
	if allocs != 0 {
		t.Fatalf("schedule+cancel of a typed expiry allocates %v per op, want 0", allocs)
	}
}
