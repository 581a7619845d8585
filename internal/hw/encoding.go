package hw

import (
	"errors"
	"fmt"
	"math"
	"time"
)

// DeviceID is a µPnP device-type identifier: 32 bits drawn from the open
// global µPnP address space (Section 3.3). The hardware encodes it as four
// timed pulses, one byte per pulse (Figure 3).
type DeviceID uint32

// Reserved identifiers from the multicast addressing schema (Section 5.1).
const (
	// DeviceIDAllPeripherals (0x00000000) represents all peripherals.
	DeviceIDAllPeripherals DeviceID = 0x00000000
	// DeviceIDAllClients (0xffffffff) represents all µPnP clients.
	DeviceIDAllClients DeviceID = 0xffffffff
)

// Bytes splits the identifier into the four byte values carried by pulses
// T1..T4, most significant first.
func (id DeviceID) Bytes() [4]byte {
	return [4]byte{byte(id >> 24), byte(id >> 16), byte(id >> 8), byte(id)}
}

// DeviceIDFromBytes reassembles an identifier from the four pulse bytes.
func DeviceIDFromBytes(b [4]byte) DeviceID {
	return DeviceID(b[0])<<24 | DeviceID(b[1])<<16 | DeviceID(b[2])<<8 | DeviceID(b[3])
}

// Reserved reports whether the identifier is one of the two reserved values
// that may not be assigned to a physical peripheral type.
func (id DeviceID) Reserved() bool {
	return id == DeviceIDAllPeripherals || id == DeviceIDAllClients
}

// String formats the identifier as 0x and eight lowercase hex digits, the
// form fmt's "0x%08x" gives, for the cost of the one string.
func (id DeviceID) String() string {
	const digits = "0123456789abcdef"
	b := [10]byte{'0', 'x'}
	for i := len(b) - 1; i >= 2; i-- {
		b[i] = digits[id&0xf]
		id >>= 4
	}
	return string(b[:])
}

// PulseCoder maps byte values to pulse durations and back.
//
// Because passive-component error is relative (a ±0.5% resistor is off by
// 0.5% of its value whether it is 1kΩ or 1MΩ), the 256 decode bins are spaced
// logarithmically: bin b covers durations around TMin·Ratio^b. Adjacent bins
// are separated by the constant factor Ratio, so a measured pulse decodes
// correctly as long as the total relative timing error stays below
// (Ratio-1)/2. A linear spacing would instead need the guard band to grow
// with the value — the "component values grow exponentially" problem the
// paper cites [21] to justify splitting the identifier into 4 short pulses.
type PulseCoder struct {
	// TMin is the duration encoding byte value 0.
	TMin time.Duration
	// Ratio is the multiplicative spacing between adjacent bins (> 1).
	Ratio float64
}

// DefaultPulseCoder is calibrated so that a 4-pulse identification train
// spans the per-identification timing window reported in Section 6.1
// (220–300 ms total process time once the board's channel-scan overhead is
// included; see ControlBoard).
var DefaultPulseCoder = PulseCoder{TMin: 1500 * time.Microsecond, Ratio: 1.0105}

// ErrPulseOutOfRange reports a measured pulse outside the decodable window.
var ErrPulseOutOfRange = errors.New("hw: pulse length outside decodable window")

// TMax returns the duration encoding byte value 255, the longest legal pulse.
func (pc PulseCoder) TMax() time.Duration {
	return pc.Duration(255)
}

// GuardBand returns the maximum tolerable total relative timing error for
// unambiguous decoding: half the spacing between adjacent bins.
func (pc PulseCoder) GuardBand() float64 {
	return (pc.Ratio - 1) / 2
}

// Duration returns the nominal pulse duration that encodes byte value b.
func (pc PulseCoder) Duration(b byte) time.Duration {
	t := float64(pc.TMin) * math.Pow(pc.Ratio, float64(b))
	return time.Duration(math.Round(t))
}

// Byte decodes a measured pulse duration to the nearest byte bin. It fails
// if the pulse falls more than half a bin outside the legal window.
func (pc PulseCoder) Byte(t time.Duration) (byte, error) {
	if t <= 0 {
		return 0, ErrPulseOutOfRange
	}
	idx := math.Log(float64(t)/float64(pc.TMin)) / math.Log(pc.Ratio)
	bin := math.Round(idx)
	if bin < -0.5 || bin > 255.5 {
		return 0, ErrPulseOutOfRange
	}
	if bin < 0 {
		bin = 0
	}
	if bin > 255 {
		bin = 255
	}
	return byte(bin), nil
}

// EncodeID returns the four nominal pulse durations (T1..T4 of Figure 3)
// encoding the identifier.
func (pc PulseCoder) EncodeID(id DeviceID) [4]time.Duration {
	var out [4]time.Duration
	for i, b := range id.Bytes() {
		out[i] = pc.Duration(b)
	}
	return out
}

// DecodeID converts four measured pulse durations back to an identifier.
func (pc PulseCoder) DecodeID(pulses [4]time.Duration) (DeviceID, error) {
	var bs [4]byte
	for i, t := range pulses {
		b, err := pc.Byte(t)
		if err != nil {
			return 0, fmt.Errorf("pulse T%d (%v): %w", i+1, t, err)
		}
		bs[i] = b
	}
	return DeviceIDFromBytes(bs), nil
}

// TrainDuration returns the total duration of the 4-pulse train for id,
// i.e. T1+T2+T3+T4. This is what the identification slot on the control
// board must wait out.
func (pc PulseCoder) TrainDuration(id DeviceID) time.Duration {
	var sum time.Duration
	for _, t := range pc.EncodeID(id) {
		sum += t
	}
	return sum
}

// Resistors returns the four nominal peripheral-side resistor values that
// encode id when measured through the given multivibrator (Figure 4: R1..R4).
func (pc PulseCoder) Resistors(id DeviceID, m Multivibrator) [4]Ohm {
	var out [4]Ohm
	for i, t := range pc.EncodeID(id) {
		out[i] = m.ResistorFor(t)
	}
	return out
}

// SinglePulseCoder models the design alternative the paper rejects: encoding
// the whole n-bit identifier in ONE pulse. With 2^n logarithmic bins at the
// same guard band, the worst-case pulse is TMin·Ratio^(2^n-1) — exponentially
// longer than the 4-pulse train. Used by the ablation benchmark.
type SinglePulseCoder struct {
	TMin  time.Duration
	Ratio float64
	Bits  uint // identifier width in bits (≤ 32)
}

// WorstCase returns the longest pulse the scheme can produce. The result
// saturates at math.MaxInt64 (≈292 years) — for Bits=32 at any realistic
// guard band the true value overflows any physical timer.
func (sc SinglePulseCoder) WorstCase() time.Duration {
	bins := math.Pow(2, float64(sc.Bits)) - 1
	t := float64(sc.TMin) * math.Pow(sc.Ratio, bins)
	if t > math.MaxInt64 || math.IsInf(t, 1) {
		return time.Duration(math.MaxInt64)
	}
	return time.Duration(t)
}

// Duration returns the pulse encoding value v (< 2^Bits).
func (sc SinglePulseCoder) Duration(v uint64) time.Duration {
	t := float64(sc.TMin) * math.Pow(sc.Ratio, float64(v))
	if t > math.MaxInt64 || math.IsInf(t, 1) {
		return time.Duration(math.MaxInt64)
	}
	return time.Duration(math.Round(t))
}
