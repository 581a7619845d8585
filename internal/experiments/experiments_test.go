package experiments

import (
	"math"
	"os"
	"strings"
	"testing"
	"time"
)

// TestReportMatchesCommitted regenerates the full report and compares it
// byte for byte with the committed EXPERIMENTS.md: every number in it is
// virtual or counted, so any drift is a change in a reproduced result.
func TestReportMatchesCommitted(t *testing.T) {
	want, err := os.ReadFile("../../EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	got := All(DefaultRuns)
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	i := 0
	for i < len(gl) && i < len(wl) && gl[i] == wl[i] {
		i++
	}
	line := func(ls []string) string {
		if i < len(ls) {
			return ls[i]
		}
		return "(end of report)"
	}
	t.Fatalf("EXPERIMENTS.md differs from the regenerated report at line %d:\n  committed:   %q\n  regenerated: %q\n"+
		"if the change is intended, regenerate it from the repository root with:\n  go run ./cmd/upnp-experiments > EXPERIMENTS.md",
		i+1, line(wl), line(gl))
}

func TestWaveformsRender(t *testing.T) {
	out := Waveforms()
	for _, want := range []string{"Figure 2", "Figure 3", "Figure 5", "channelA EN", "channelC EN", "output"} {
		if !strings.Contains(out, want) {
			t.Errorf("waveforms missing %q", want)
		}
	}
}

func TestFigure12Shape(t *testing.T) {
	rows := Figure12()
	if len(rows) != 3*7 {
		t.Fatalf("rows = %d, want 21 (3 profiles x 7 decades)", len(rows))
	}
	for _, r := range rows {
		if r.UPnPMean >= r.USB {
			t.Errorf("%s at %v: µPnP %.3g J must beat USB %.3g J",
				r.Profile, r.ChangePeriod, float64(r.UPnPMean), float64(r.USB))
		}
	}
	if !strings.Contains(Figure12Table(), "orders of magnitude") {
		t.Error("table must state the headline comparison")
	}
}

func TestTable2Rows(t *testing.T) {
	rows := Table2()
	if len(rows) != 7 {
		t.Fatalf("rows = %d", len(rows))
	}
	if rows[6].Component != "Total" || rows[6].PaperFlash != 14231 || rows[6].PaperRAM != 1518 {
		t.Fatalf("total row = %+v", rows[6])
	}
	if rows[6].Measured <= 0 {
		t.Error("measured total must be positive")
	}
	if Table2Text() == "" {
		t.Error("must render")
	}
}

func TestTable3ReproducesShape(t *testing.T) {
	rows, err := Table3()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	var dslSLoC, natSLoC, dslBytes, natBytes int
	for _, r := range rows {
		// Per-driver claims: the DSL variant must need fewer lines than
		// the native variant and stay OTA-friendly.
		if r.DSLSLoC >= r.NativeSLoC {
			t.Errorf("%s: DSL %d SLoC must beat native %d", r.Driver, r.DSLSLoC, r.NativeSLoC)
		}
		if r.DSLBytes > 1024 {
			t.Errorf("%s: DSL driver is %d B; must stay OTA-friendly", r.Driver, r.DSLBytes)
		}
		dslSLoC += r.DSLSLoC
		natSLoC += r.NativeSLoC
		dslBytes += r.DSLBytes
		natBytes += r.NativePaperBytes
	}
	// Aggregate shape: paper reports 52% SLoC and 94% footprint reduction.
	slocRed := 1 - float64(dslSLoC)/float64(natSLoC)
	byteRed := 1 - float64(dslBytes)/float64(natBytes)
	if slocRed < 0.30 || slocRed > 0.75 {
		t.Errorf("SLoC reduction = %.0f%%, want in the paper's ballpark (52%%)", slocRed*100)
	}
	if byteRed < 0.70 {
		t.Errorf("footprint reduction = %.0f%%, want large (paper: 94%%)", byteRed*100)
	}
	if !strings.Contains(Table3Text(), "Average") {
		t.Error("table must include the average row")
	}
}

func TestTable4Statistics(t *testing.T) {
	res, err := Table4(5)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 5 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	// Each phase mean lies within 5% of the paper's Table 4. Measured at 5
	// and at 128 runs: 2.59 / 5.44 / 52.97 / 57.86 / 46.70 ms, the worst
	// being Advertise at +2.9%.
	paper := []float64{2.59, 5.44, 53.91, 59.50, 45.37} // ms
	var sum time.Duration
	paperSum := 0.0
	for i, r := range res.Rows {
		if got := float64(r.Mean) / 1e6; math.Abs(got/paper[i]-1) > 0.05 {
			t.Errorf("%s mean = %.2f ms, want within 5%% of the paper's %.2f ms", r.Operation, got, paper[i])
		}
		sum += r.Mean
		paperSum += paper[i]
	}
	// Phase means must sum to the network total.
	if diff := res.Total.Mean - sum; diff < -time.Millisecond || diff > time.Millisecond {
		t.Errorf("total %v != phase sum %v", res.Total.Mean, sum)
	}
	// The total lies within 3% of the paper's phase sum, 166.81 ms (165.55
	// ms here). The paper's own "total time" row, 188.53 ms, is not the sum
	// of its own phases, so the phase sum is the reference.
	if got := float64(res.Total.Mean) / 1e6; math.Abs(got/paperSum-1) > 0.03 {
		t.Errorf("network total = %.2f ms, want within 3%% of the paper's phase sum %.2f ms", got, paperSum)
	}
	// End-to-end includes hardware identification (paper: 488.53 ms).
	if res.EndToEnd.Mean < 350*time.Millisecond || res.EndToEnd.Mean > 600*time.Millisecond {
		t.Errorf("end-to-end = %v, want roughly 490 ms", res.EndToEnd.Mean)
	}
	if Table4Text(res) == "" {
		t.Error("must render")
	}
}

func TestAblationPulse(t *testing.T) {
	out := AblationPulse()
	if !strings.Contains(out, "4 x 8-bit pulses") || !strings.Contains(out, "292 years") {
		t.Fatalf("ablation output:\n%s", out)
	}
}

func TestAblationMulticastBeatsUnicast(t *testing.T) {
	for _, n := range []int{7, 31} {
		r, err := AblationMulticast(n)
		if err != nil {
			t.Fatal(err)
		}
		if r.MulticastTransmissions >= r.UnicastTransmissions {
			t.Errorf("n=%d: multicast %d must beat unicast %d",
				n, r.MulticastTransmissions, r.UnicastTransmissions)
		}
		// SMRF covers a tree of n nodes with at most n edge transmissions.
		if r.MulticastTransmissions > n {
			t.Errorf("n=%d: multicast %d transmissions exceeds node count", n, r.MulticastTransmissions)
		}
	}
	if AblationMulticastText() == "" {
		t.Error("must render")
	}
}

func TestCSLoCCounter(t *testing.T) {
	src := "/* block\n comment */\nint x;\n// line comment\n\nint y;\n/* one-liner */ int z;\n"
	if n := cSLoC(src); n != 3 {
		t.Fatalf("cSLoC = %d, want 3", n)
	}
}
