package netsim

import (
	"math"
	"math/rand"
	"testing"
)

// TestLossStreamMatchesMathRand pins the inline loss stream to math/rand:
// for fixed seeds, the extremes and the eight zone seeds New derives, its
// Float64 yields rand.Rand.Float64's values, draw for draw. Every loss and
// jitter draw of every golden run depends on it.
func TestLossStreamMatchesMathRand(t *testing.T) {
	const draws = 1_000_000
	seeds := []int64{0, 1, -1, 13, math.MaxInt64}
	for z := 0; z < 8; z++ {
		seeds = append(seeds, zoneSeed(1, z))
	}
	for _, seed := range seeds {
		var s lossStream
		s.seed(seed)
		r := rand.New(rand.NewSource(seed))
		for i := 0; i < draws; i++ {
			if got, want := s.Float64(), r.Float64(); got != want {
				t.Fatalf("seed %d, draw %d: %v, want %v", seed, i, got, want)
			}
		}
	}
}

// TestLossCutBoundaries: a cut splits the 63-bit draws exactly where
// rand.Rand.Float64's value crosses the loss rate, and drawOne exactly where
// it rounds to 1.
func TestLossCutBoundaries(t *testing.T) {
	edge := int63ToFloat(lossCut(0.02))
	for _, p := range []float64{1e-300, 0.02, edge, math.Nextafter(edge, 0), math.Nextafter(edge, 1), 0.5, 1} {
		c := lossCut(p)
		if c >= 1<<63 || int63ToFloat(c) < p || (c > 0 && int63ToFloat(c-1) >= p) {
			t.Errorf("p=%v: cut %d is not the first draw at or above p", p, c)
		}
	}
	if c := lossCut(1.5); c != 1<<63 {
		t.Errorf("p=1.5: cut %d, want 2^63 (every draw lost)", c)
	}
	if c := lossCut(1); c != drawOne {
		t.Errorf("first draw that rounds to 1 is %d, drawOne is %d", c, uint64(drawOne))
	}
}

// TestSurviveMatchesFloat64Draws: survive decides every hop as
// Float64() < p would and consumes the stream as those calls would, draws
// that round to 1 and are resampled included.
func TestSurviveMatchesFloat64Draws(t *testing.T) {
	for _, p := range []float64{0.02, 0.3, 1, 1.5, 1e-12} {
		cut := lossCut(p)
		var a lossStream
		a.seed(7)
		a.refill()
		// Two draws that round to 1, one with its discarded top bit set.
		a.ring[3] = 1<<63 - 1
		a.ring[4] = math.MaxUint64
		b := a
		for i := 0; i < 100_000; i++ {
			hops := 1 + i%12
			want := true
			for h := 0; h < hops; h++ {
				if b.Float64() < p {
					want = false
					break
				}
			}
			if got := a.survive(hops, cut); got != want {
				t.Fatalf("p=%v, copy %d over %d hops: survive %v, Float64 draws say %v", p, i, hops, got, want)
			}
		}
		if a.pos != b.pos || a.ring != b.ring {
			t.Fatalf("p=%v: survive left the stream at %d, Float64 at %d", p, a.pos, b.pos)
		}
	}
}
