package hw

import (
	"fmt"
	"math/rand"
	"sync"
	"time"
)

// Joule is an energy quantity in joules.
type Joule float64

// Watt is a power quantity in watts.
type Watt float64

// Energy consumed by power P over duration d.
func (p Watt) Energy(d time.Duration) Joule { return Joule(float64(p) * d.Seconds()) }

// Timing and power calibration of the prototype control board (Section 6.1).
//
// The identification process scans every channel in sequence (Figure 5): the
// board arms a channel, triggers the multivibrator chain, and measures the
// pulse train; an unconnected channel is detected by the absence of a pulse
// within a timeout slightly above the longest legal pulse train.
//
// With the default 3-channel board and one peripheral connected this yields
// a process time between 220 ms (all-zero identifier) and 300 ms (all-0xff),
// matching the measured window in Section 6.1.
//
// The two power levels are derived from the paper's measured energy
// endpoints: solving Pscan·214ms + Ptrain·6ms = 2.48 mJ and
// Pscan·214ms + Ptrain·86ms = 6.756 mJ gives Pscan ≈ 10.1 mW and
// Ptrain ≈ 53.5 mW, for a worst-case average draw of ≈6.8 mA at 3.3 V —
// consistent with the paper's "average of 7 mA at 3.3V".
const (
	DefaultChannels = 3

	// TriggerOverhead is the one-off cost of waking the board and issuing
	// the start trigger.
	TriggerOverhead = 2 * time.Millisecond
	// ChannelSettle is the per-channel arming/multiplexing time.
	ChannelSettle = 24 * time.Millisecond
	// NoPulseTimeout is how long the board waits on an unconnected channel
	// before concluding nothing is attached.
	NoPulseTimeout = 70 * time.Millisecond

	// PowerScan is the board draw while arming channels and waiting.
	PowerScan Watt = 10.09e-3
	// PowerTrain is the board draw while a multivibrator chain is firing.
	PowerTrain Watt = 53.45e-3
	// SupplyVoltage of the control board.
	SupplyVoltage = 3.3
)

// BoardConfig configures a simulated control board.
type BoardConfig struct {
	// Channels is the number of peripheral channels (default 3, as in the
	// prototype of Figure 5).
	Channels int
	// Coder is the pulse encoding (default DefaultPulseCoder).
	Coder PulseCoder
	// Vibrator describes the timing circuit (default DefaultMultivibrator).
	// Each board samples its own four timing capacitors once at build time.
	Vibrator Multivibrator
	// MeasurementJitter is an extra relative timing error sampled per pulse
	// (models trigger skew and comparator delay). Default 0.
	MeasurementJitter float64
	// Rng drives capacitor manufacturing and measurement jitter. Nil keeps
	// everything nominal and deterministic.
	Rng *rand.Rand
}

// DefaultTimerResolution quantises pulse-length measurement: a 16 MHz AVR
// timer with /8 prescaler.
const DefaultTimerResolution = 500 * time.Nanosecond

// ChannelReading is the outcome of identifying one channel.
type ChannelReading struct {
	Channel   int
	Connected bool
	// ID is the decoded identifier (valid only when Err is nil and
	// Connected is true).
	ID DeviceID
	// Pulses are the measured pulse lengths T1..T4.
	Pulses [4]time.Duration
	// Train is the total pulse-train duration.
	Train time.Duration
	// Err reports a decode failure (e.g. out-of-tolerance components).
	Err error
}

// IdentifyResult aggregates a full identification scan.
type IdentifyResult struct {
	Readings []ChannelReading
	// Duration is the total process time (trigger + all channel slots).
	Duration time.Duration
	// Energy is the board energy consumed by the scan.
	Energy Joule
}

// Interrupt is delivered when a peripheral is connected or disconnected
// (the INT line of Figure 4). Receipt of an interrupt is what powers the
// board up and prompts the host MCU to run the identification routine.
type Interrupt struct {
	Channel  int
	Attached bool
}

// ControlBoard simulates the µPnP control board: a bank of four shared
// multivibrators time-multiplexed over N peripheral channels, an interrupt
// circuit, and the power gating that keeps the board off except during
// identification scans.
type ControlBoard struct {
	cfg  BoardConfig
	caps [4]Farad // as-manufactured timing capacitors

	mu          sync.Mutex
	slots       []*Peripheral
	interruptFn func(Interrupt)

	stats BoardStats
}

// BoardStats accumulates lifetime counters for the board.
type BoardStats struct {
	Scans       int
	Interrupts  int
	ActiveTime  time.Duration
	EnergyTotal Joule
}

// NewControlBoard builds a board, sampling its timing capacitors once.
func NewControlBoard(cfg BoardConfig) *ControlBoard {
	if cfg.Channels <= 0 {
		cfg.Channels = DefaultChannels
	}
	if cfg.Coder.TMin == 0 {
		cfg.Coder = DefaultPulseCoder
	}
	if cfg.Vibrator.K == 0 {
		cfg.Vibrator = DefaultMultivibrator
	}
	b := &ControlBoard{cfg: cfg, slots: make([]*Peripheral, cfg.Channels)}
	for i := range b.caps {
		b.caps[i] = cfg.Vibrator.C.Actual(cfg.Rng)
	}
	return b
}

// Channels returns the number of peripheral channels.
func (b *ControlBoard) Channels() int { return len(b.slots) }

// OnInterrupt registers the host MCU's interrupt service routine. It is
// invoked synchronously from Plug and Unplug.
func (b *ControlBoard) OnInterrupt(fn func(Interrupt)) {
	b.mu.Lock()
	b.interruptFn = fn
	b.mu.Unlock()
}

// CanPlug returns the error Plug would return for the channel right now:
// nil when it is in range and empty.
func (b *ControlBoard) CanPlug(channel int) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.canPlugLocked(channel)
}

func (b *ControlBoard) canPlugLocked(channel int) error {
	if channel < 0 || channel >= len(b.slots) {
		return fmt.Errorf("hw: channel %d out of range [0,%d)", channel, len(b.slots))
	}
	if b.slots[channel] != nil {
		return fmt.Errorf("hw: channel %d already occupied", channel)
	}
	return nil
}

// Plug connects a peripheral to a channel and raises the attach interrupt.
func (b *ControlBoard) Plug(channel int, p *Peripheral) error {
	b.mu.Lock()
	if err := b.canPlugLocked(channel); err != nil {
		b.mu.Unlock()
		return err
	}
	b.slots[channel] = p
	b.stats.Interrupts++
	fn := b.interruptFn
	b.mu.Unlock()
	if fn != nil {
		fn(Interrupt{Channel: channel, Attached: true})
	}
	return nil
}

// Unplug disconnects the peripheral on a channel and raises the detach
// interrupt. It returns the removed peripheral.
func (b *ControlBoard) Unplug(channel int) (*Peripheral, error) {
	b.mu.Lock()
	if channel < 0 || channel >= len(b.slots) {
		b.mu.Unlock()
		return nil, fmt.Errorf("hw: channel %d out of range [0,%d)", channel, len(b.slots))
	}
	p := b.slots[channel]
	if p == nil {
		b.mu.Unlock()
		return nil, fmt.Errorf("hw: channel %d is empty", channel)
	}
	b.slots[channel] = nil
	b.stats.Interrupts++
	fn := b.interruptFn
	b.mu.Unlock()
	if fn != nil {
		fn(Interrupt{Channel: channel, Attached: false})
	}
	return p, nil
}

// Peripheral returns the peripheral connected to a channel, or nil.
func (b *ControlBoard) Peripheral(channel int) *Peripheral {
	b.mu.Lock()
	defer b.mu.Unlock()
	if channel < 0 || channel >= len(b.slots) {
		return nil
	}
	return b.slots[channel]
}

// Stats returns a snapshot of the lifetime counters.
func (b *ControlBoard) Stats() BoardStats {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.stats
}

// Identify runs the full identification scan (Figure 5): every channel is
// enabled for its time slot in sequence; connected channels produce a
// 4-pulse train that is measured and decoded, unconnected channels burn the
// no-pulse timeout. The returned result carries per-channel readings plus
// the total process time and energy.
//
// The simulation is instantaneous in wall-clock terms: Duration and Energy
// report what the physical process would have cost.
func (b *ControlBoard) Identify() IdentifyResult {
	b.mu.Lock()
	defer b.mu.Unlock()

	res := IdentifyResult{Duration: TriggerOverhead}
	var scanTime = TriggerOverhead
	var trainTime time.Duration

	for ch, p := range b.slots {
		scanTime += ChannelSettle
		reading := ChannelReading{Channel: ch}
		if p == nil {
			scanTime += NoPulseTimeout
			res.Readings = append(res.Readings, reading)
			continue
		}
		reading.Connected = true
		actual := p.ActualResistances()
		for i := 0; i < 4; i++ {
			t := b.pulse(actual[i], i)
			reading.Pulses[i] = t
			reading.Train += t
		}
		trainTime += reading.Train
		reading.ID, reading.Err = b.cfg.Coder.DecodeID(reading.Pulses)
		res.Readings = append(res.Readings, reading)
	}

	res.Duration = scanTime + trainTime
	res.Energy = PowerScan.Energy(scanTime) + PowerTrain.Energy(trainTime)

	b.stats.Scans++
	b.stats.ActiveTime += res.Duration
	b.stats.EnergyTotal += res.Energy
	return res
}

// pulse measures one multivibrator firing for resistance r using timing
// capacitor slot i, applying measurement jitter and timer quantisation.
func (b *ControlBoard) pulse(r Ohm, i int) time.Duration {
	secs := b.cfg.Vibrator.K * float64(r) * float64(b.caps[i%len(b.caps)])
	if b.cfg.MeasurementJitter > 0 && b.cfg.Rng != nil {
		dev := (b.cfg.Rng.Float64()*2 - 1) * b.cfg.MeasurementJitter
		secs *= 1 + dev
	}
	t := time.Duration(secs * float64(time.Second))
	const res = DefaultTimerResolution
	return (t + res/2) / res * res // round to the nearest timer tick
}

// WorstCaseScanTime returns the longest possible identification process for
// a board with n channels all connected (used for calibration tests and the
// documentation of the 220–300 ms window).
func WorstCaseScanTime(cfg BoardConfig, connected int) time.Duration {
	if cfg.Channels <= 0 {
		cfg.Channels = DefaultChannels
	}
	if cfg.Coder.TMin == 0 {
		cfg.Coder = DefaultPulseCoder
	}
	d := TriggerOverhead + time.Duration(cfg.Channels)*ChannelSettle
	d += time.Duration(cfg.Channels-connected) * NoPulseTimeout
	d += time.Duration(connected) * 4 * cfg.Coder.TMax()
	return d
}
