package vm

import (
	"fmt"
	"path"
	"strings"
	"testing"

	"micropnp/internal/driver"
	"micropnp/internal/dsl"
)

// benchCall is one handler invocation in a driver's steady-state sample
// cycle.
type benchCall struct {
	name string
	args []int32
}

// driverCycles maps each embedded driver to its realistic per-sample
// handler sequence (the peripheral-event choreography a live Thing would
// replay per reading). BMP180 is the full two-conversion compensation
// cycle; ID-20LA replays a complete 16-byte RFID frame.
func driverCycles() map[string][]benchCall {
	rfid := []byte{0x02, '4', '2', '0', '0', '7', 'A', '8', 'C', '2', '1', 'F', '5', 0x0D, 0x0A, 0x03}
	id20 := []benchCall{{name: "read"}}
	for _, c := range rfid {
		id20 = append(id20, benchCall{name: "newdata", args: []int32{int32(c)}})
	}
	id20 = append(id20, benchCall{name: "readDone"})

	return map[string][]benchCall{
		"tmp36":   {{name: "read"}, {name: "sample", args: []int32{512}}},
		"hih4030": {{name: "read"}, {name: "sample", args: []int32{700}}},
		"id20la":  id20,
		"bmp180": {
			{name: "read"},
			{name: "i2cack"},
			{name: "timerFired"},
			{name: "i2cdata", args: []int32{27898, 0}}, // UT
			{name: "i2cack"},
			{name: "timerFired"},
			{name: "i2cdata", args: []int32{23843 << 7, 0}}, // UP (3-byte wire value, >>7 at oss=1)
			{name: "compute"},
		},
		"adxl345": {
			{name: "read"},
			{name: "spidata", args: []int32{120, 0}},
			{name: "spidata", args: []int32{-40, 1}},
			{name: "spidata", args: []int32{250, 2}},
		},
		"relay": {
			{name: "write", args: []int32{1}},
			{name: "read"},
			{name: "i2cdata", args: []int32{1, 0}},
		},
	}
}

// BenchmarkDriverExec pairs the compiled engine against the interpreter
// oracle on every embedded driver's sample cycle. benchgate gates the
// geomean ratio in CI (the speedup-driver gate of PERF_ledger.json).
//
// The driver loop is OUTER and the engine loop INNER so `go test -count N`
// runs each compiled sub-benchmark immediately before its interp twin:
// slow machine-state drift over a multi-minute run (turbo, noisy CI
// neighbors) then hits both halves of a pair about equally and cancels in
// the ratio, instead of deflating every ratio when the run starts slow and
// ends fast.
func BenchmarkDriverExec(b *testing.B) {
	cycles := driverCycles()
	all := append(append([]driver.StandardDriver{}, driver.StandardDrivers...), driver.ExtendedDrivers...)
	for _, sd := range all {
		for _, engine := range []string{"compiled", "interp"} {
			short := strings.TrimSuffix(path.Base(sd.File), ".updsl")
			cycle, ok := cycles[short]
			if !ok {
				b.Fatalf("no bench cycle for embedded driver %q", short)
			}
			b.Run(fmt.Sprintf("driver=%s/drv=%s", engine, short), func(b *testing.B) {
				src, err := driver.Source(sd)
				if err != nil {
					b.Fatal(err)
				}
				prog, err := dsl.Compile(src, uint32(sd.ID))
				if err != nil {
					b.Fatal(err)
				}
				m, err := NewMachine(prog)
				if err != nil {
					b.Fatal(err)
				}
				if engine == "interp" {
					m.SetInterp(true)
				} else if !m.Compiled() {
					b.Fatal("embedded driver did not compile")
				}
				// One-time install prologue outside the measured loop. For
				// BMP180 this replays the 11-word calibration read so the
				// compensation math in the cycle runs on real coefficients.
				runOrTrap(b, m, "init", nil)
				if short == "bmp180" {
					cal := []int32{408, -72, -14383, 32741, 32757, 23153, 6190, 4, -32768, -8711, 2868}
					for i, w := range cal {
						runOrTrap(b, m, "i2cdata", []int32{w, int32(i)})
					}
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					for _, c := range cycle {
						if _, err := m.Run(c.name, c.args); err != nil {
							b.Fatalf("%s: %v", c.name, err)
						}
					}
				}
			})
		}
	}
}

func runOrTrap(b *testing.B, m *Machine, name string, args []int32) {
	b.Helper()
	if _, err := m.Run(name, args); err != nil {
		b.Fatalf("%s: %v", name, err)
	}
}
