package netsim

import "math/rand"

// Ring length and tap of math/rand's additive lagged Fibonacci generator.
const (
	lossLen = 607
	lossTap = 273
)

// lossStream is one lane's loss/jitter stream. It carries on math/rand's
// additive lagged Fibonacci sequence, x[n] = x[n-607] + x[n-273] (mod 2^64),
// inline: a draw is an array read and an index bump, with none of the Source
// interface dispatch rand.Rand pays per call. Seeded with s, it yields
// exactly the values rand.New(rand.NewSource(s)).Float64 yields, so a run's
// loss and jitter draws, and with them its virtual-time outputs, are those
// of math/rand's generator for the same seed.
//
// The ring holds one block of 607 consecutive values, x[607m .. 607m+606] at
// ring[0..606], and pos is the next one to hand out. Both lags are at least
// 273, so the next block is computed in place in two plain passes (refill)
// rather than one dependent update per draw.
type lossStream struct {
	pos  uint
	ring [lossLen]uint64
}

// seed positions the stream at the start of rand.NewSource(seed)'s sequence.
// math/rand does not expose its seeded ring, only the outputs x[0..606] it
// produces from it; running the recurrence backwards over them,
// x[n-607] = x[n] - x[n-273], recovers the ring x[-607..-1] the source
// started on. That is the block before the first, so the stream regenerates
// x[0..606] before it carries on.
func (s *lossStream) seed(seed int64) {
	src := rand.NewSource(seed).(rand.Source64)
	var x [2 * lossLen]uint64 // x[k] is x[k-607]
	for k := lossLen; k < len(x); k++ {
		x[k] = src.Uint64()
	}
	for k := len(x) - 1; k >= lossLen; k-- {
		x[k-lossLen] = x[k] - x[k-lossTap]
	}
	copy(s.ring[:], x[:lossLen])
	s.pos = lossLen
}

// refill advances the ring one block: x[n] = x[n-607] + x[n-273]. The first
// 273 slots read lag-273 values from the old block, the rest from the new
// one.
func (s *lossStream) refill() {
	r := &s.ring
	for i := 0; i < lossTap; i++ {
		r[i] += r[i+lossLen-lossTap]
	}
	for i := lossTap; i < lossLen; i++ {
		r[i] += r[i-lossTap]
	}
	s.pos = 0
}

// int63ToFloat is rand.Rand.Float64's map of a 63-bit draw onto [0, 1].
func int63ToFloat(v uint64) float64 { return float64(int64(v)) / (1 << 63) }

// drawOne is the smallest 63-bit draw that int63ToFloat rounds to 1: the
// draws from 2^63 - 2^10, the largest float64 below 2^63, up to halfway to
// 2^63 round down, and the tie rounds up to the even 2^63.
const drawOne = 1<<63 - 1<<9

// Float64 returns the next value in [0, 1) with rand.Rand.Float64's
// arithmetic: the low 63 bits over 2^63, resampled when that rounds to 1.
func (s *lossStream) Float64() float64 {
	for {
		if s.pos >= lossLen {
			s.refill()
		}
		v := s.ring[s.pos]
		s.pos++
		if f := int63ToFloat(v & (1<<63 - 1)); f != 1 {
			return f
		}
	}
}

// lossCut moves a loss rate p into the integer domain of the 63-bit draws:
// it returns the smallest draw v with int63ToFloat(v) >= p, or 2^63 when
// there is none. int63ToFloat is monotone, so Float64() < p holds for
// exactly the draws below the cut.
func lossCut(p float64) uint64 {
	lo, hi := uint64(0), uint64(1)<<63
	for lo < hi {
		if mid := lo + (hi-lo)/2; int63ToFloat(mid) >= p {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// survive takes one copy's per-hop loss samples — the values Float64() < p
// would test for the p whose lossCut is cut, in the same order, consuming
// the same stream — until one is lost, and reports whether the copy
// survived all hops. It compares the raw draws with the cut, so a sample is
// an array read and two integer compares.
func (s *lossStream) survive(hops int, cut uint64) bool {
	pos := s.pos
	ok := true
	for h := 0; h < hops; {
		if pos >= lossLen {
			s.refill()
			pos = 0
		}
		v := s.ring[pos] & (1<<63 - 1)
		pos++
		if v >= drawOne {
			continue // Float64 resamples a draw that rounds to 1
		}
		if v < cut {
			ok = false
			break
		}
		h++
	}
	s.pos = pos
	return ok
}
