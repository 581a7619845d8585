// Package experiments regenerates every table and figure of the paper's
// evaluation (Section 6) from the simulated system. Each experiment returns
// structured results plus a formatted table mirroring what the paper
// reports. All assembles every table into one report; the repository
// commits it as EXPERIMENTS.md, and a test regenerates and byte-compares it,
// so a change that moves a reproduced number shows in that file's diff.
package experiments

import (
	"embed"
	"fmt"
	"math"
	"net/netip"
	"strings"
	"time"

	"micropnp/internal/bytecode"
	"micropnp/internal/core"
	"micropnp/internal/driver"
	"micropnp/internal/dsl"
	"micropnp/internal/energy"
	"micropnp/internal/hw"
	"micropnp/internal/netsim"
	"micropnp/internal/thing"
)

//go:embed native/*.c
var nativeFS embed.FS

// ---------------------------------------------------------------------------
// Figures 2, 3 and 5 — hardware waveforms

// Waveforms renders the three hardware figures as ASCII timing diagrams.
func Waveforms() string {
	var sb strings.Builder
	sb.WriteString("Figure 2 — single multivibrator pulse (T = k*R*C, R = 47k):\n")
	sb.WriteString(hw.SinglePulse(hw.DefaultMultivibrator, 47_000).ASCII(72))

	sb.WriteString("\nFigure 3 — 4-interval identifier train for 0xad1cbe01:\n")
	sb.WriteString(hw.IDTrain(hw.DefaultPulseCoder, 0xad1cbe01).ASCII(72))

	sb.WriteString("\nFigure 5 — time-multiplexed channel scan (peripherals on A and C):\n")
	board := hw.NewControlBoard(hw.BoardConfig{})
	pa, _ := hw.NewPeripheral(hw.PeripheralSpec{ID: 0xad1cbe01, Bus: hw.BusADC})
	pc, _ := hw.NewPeripheral(hw.PeripheralSpec{ID: 0xed3f0ac1, Bus: hw.BusUART})
	_ = board.Plug(0, pa)
	_ = board.Plug(2, pc)
	sb.WriteString(hw.ChannelScan(board).ASCII(72))
	return sb.String()
}

// ---------------------------------------------------------------------------
// Figure 12 — one-year energy consumption

// Figure12Row is one plotted point.
type Figure12Row = energy.SweepPoint

// Figure12 evaluates the full sweep.
func Figure12() []Figure12Row {
	return energy.Sweep(energy.Figure12Rates(), energy.Figure12Profiles)
}

// Figure12Table renders the sweep like the paper's log-log plot data.
func Figure12Table() string {
	var sb strings.Builder
	sb.WriteString("Figure 12 — 1-year energy (J) vs rate of changing peripherals\n")
	fmt.Fprintf(&sb, "%-14s %-12s %-14s %-14s %-14s %-12s\n",
		"change period", "profile", "µPnP mean J", "µPnP min J", "µPnP max J", "USB host J")
	for _, r := range Figure12() {
		fmt.Fprintf(&sb, "%-14s %-12s %-14.4g %-14.4g %-14.4g %-12.4g\n",
			r.ChangePeriod, r.Profile, float64(r.UPnPMean), float64(r.UPnPMin),
			float64(r.UPnPMax), float64(r.USB))
	}
	hourly := energy.Simulate(energy.DeploymentConfig{ChangePeriod: time.Hour, Profile: energy.ProfileADC})
	fmt.Fprintf(&sb, "\nheadline: at hourly changes USB/µPnP = %.3g (paper: >4 orders of magnitude)\n",
		float64(hourly.USB)/float64(hourly.UPnPMean))
	return sb.String()
}

// ---------------------------------------------------------------------------
// Table 2 — memory footprint

// Table2Row is one software-stack component.
type Table2Row struct {
	Component  string
	PaperFlash int // bytes, as measured in the paper on the ATMega128RFA1
	PaperRAM   int
	// Measured is this reproduction's closest measurable artefact, with a
	// note describing what was measured (AVR flash/RAM are compile-target
	// properties a Go simulator cannot reproduce; EXPERIMENTS.md lists
	// each artefact next to the paper's figures).
	Measured     int
	MeasuredNote string
}

// Table2 reports the paper's footprint breakdown next to the artefact sizes
// this reproduction can measure.
func Table2() []Table2Row {
	repo, err := driver.StandardRepository()
	if err != nil {
		return nil
	}
	driverBytes := 0
	for _, e := range repo.List() {
		driverBytes += len(e.Bytecode)
	}
	// Per-component measurable proxies.
	vmProxy := 0
	for _, e := range repo.List() {
		prog, err := bytecode.Decode(e.Bytecode)
		if err != nil {
			continue
		}
		for _, h := range prog.Handlers {
			vmProxy += len(h.Code)
		}
	}
	return []Table2Row{
		{"Peripheral Controller", 2243, 465, 4 * 3, "bytes of decoded ID state per 3-channel board (4 B/channel)"},
		{"µPnP Virtual Machine", 7028, 450, vmProxy, "interpreted handler code bytes across the 4 standard drivers"},
		{"ADC Native Library", 2034, 268, 1, "library instances per driver runtime"},
		{"UART Native Library", 466, 15, 1, "library instances per driver runtime"},
		{"I2C Native Library", 436, 18, 1, "library instances per driver runtime"},
		{"µPnP Network Stack", 2024, 302, 30, "bytes of a typical encoded advertisement datagram"},
		{"Total", 14231, 1518, driverBytes, "total OTA bytes for all 4 standard drivers"},
	}
}

// Table2Text renders Table 2.
func Table2Text() string {
	var sb strings.Builder
	sb.WriteString("Table 2 — µPnP memory footprint (paper: ATMega128RFA1 build)\n")
	fmt.Fprintf(&sb, "%-24s %-12s %-10s %-10s %s\n", "component", "flash(paper)", "RAM(paper)", "measured", "measured artefact")
	for _, r := range Table2() {
		fmt.Fprintf(&sb, "%-24s %-12d %-10d %-10d %s\n", r.Component, r.PaperFlash, r.PaperRAM, r.Measured, r.MeasuredNote)
	}
	return sb.String()
}

// ---------------------------------------------------------------------------
// Table 3 — driver development effort

// Table3Row compares one driver across the DSL and native C variants.
type Table3Row struct {
	Driver string
	// DSL (measured from this repository's shipped drivers).
	DSLSLoC  int
	DSLBytes int
	// Native C variant: SLoC measured from the reference sources in
	// native/; flash bytes from the paper (avr-gcc compile-target property).
	NativeSLoC       int
	NativePaperBytes int
}

var nativeFiles = map[hw.DeviceID]string{
	driver.IDTMP36:   "native/tmp36.c",
	driver.IDHIH4030: "native/hih4030.c",
	driver.IDID20LA:  "native/id20la.c",
	driver.IDBMP180:  "native/bmp180.c",
}

var nativePaperBytes = map[hw.DeviceID]int{
	driver.IDTMP36:   2956,
	driver.IDHIH4030: 3304,
	driver.IDID20LA:  592,
	driver.IDBMP180:  652,
}

// cSLoC counts non-blank, non-comment-only lines of a C source.
func cSLoC(src string) int {
	n := 0
	inBlock := false
	for _, line := range strings.Split(src, "\n") {
		t := strings.TrimSpace(line)
		if inBlock {
			if idx := strings.Index(t, "*/"); idx >= 0 {
				inBlock = false
				t = strings.TrimSpace(t[idx+2:])
			} else {
				continue
			}
		}
		if strings.HasPrefix(t, "/*") {
			if idx := strings.Index(t, "*/"); idx >= 0 {
				t = strings.TrimSpace(t[idx+2:])
			} else {
				inBlock = true
				continue
			}
		}
		if t == "" || strings.HasPrefix(t, "//") {
			continue
		}
		n++
	}
	return n
}

// Table3 measures the shipped DSL drivers and the native C references.
func Table3() ([]Table3Row, error) {
	var rows []Table3Row
	for _, sd := range driver.StandardDrivers {
		src, err := driver.Source(sd)
		if err != nil {
			return nil, err
		}
		prog, err := dsl.Compile(src, uint32(sd.ID))
		if err != nil {
			return nil, err
		}
		cSrc, err := nativeFS.ReadFile(nativeFiles[sd.ID])
		if err != nil {
			return nil, err
		}
		rows = append(rows, Table3Row{
			Driver:           sd.Name,
			DSLSLoC:          dsl.SLoC(src),
			DSLBytes:         prog.Size(),
			NativeSLoC:       cSLoC(string(cSrc)),
			NativePaperBytes: nativePaperBytes[sd.ID],
		})
	}
	return rows, nil
}

// Table3Text renders Table 3 with the paper's summary statistics.
func Table3Text() string {
	rows, err := Table3()
	if err != nil {
		return err.Error()
	}
	var sb strings.Builder
	sb.WriteString("Table 3 — development effort and memory footprint of device drivers\n")
	fmt.Fprintf(&sb, "%-18s %-10s %-10s %-12s %-18s\n", "driver", "DSL SLoC", "DSL bytes", "native SLoC", "native bytes(paper)")
	var dslSLoC, dslBytes, natSLoC, natBytes float64
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-18s %-10d %-10d %-12d %-18d\n", r.Driver, r.DSLSLoC, r.DSLBytes, r.NativeSLoC, r.NativePaperBytes)
		dslSLoC += float64(r.DSLSLoC)
		dslBytes += float64(r.DSLBytes)
		natSLoC += float64(r.NativeSLoC)
		natBytes += float64(r.NativePaperBytes)
	}
	n := float64(len(rows))
	fmt.Fprintf(&sb, "%-18s %-10.0f %-10.0f %-12.0f %-18.0f\n", "Average", dslSLoC/n, dslBytes/n, natSLoC/n, natBytes/n)
	fmt.Fprintf(&sb, "\nSLoC reduction: %.0f%% (paper: 52%%)   footprint reduction: %.0f%% (paper: 94%%)\n",
		100*(1-dslSLoC/natSLoC), 100*(1-dslBytes/natBytes))
	return sb.String()
}

// ---------------------------------------------------------------------------
// Table 4 — peripheral announcement and driver installation timings

// Table4Result aggregates repeated plug-in traces.
type Table4Result struct {
	Rows  []Table4Row
	Total Table4Row
	// EndToEnd includes the hardware identification (the §8 488.53 ms).
	EndToEnd Table4Row
}

// Table4Row is mean ± stddev for one phase.
type Table4Row struct {
	Operation string
	Mean      time.Duration
	Stddev    time.Duration
}

// Table4 runs the plug-in sequence `runs` times (paper: 10) on fresh
// one-hop deployments and reports per-phase statistics.
func Table4(runs int) (*Table4Result, error) {
	if runs <= 0 {
		runs = 10
	}
	type sample struct {
		gen, join, req, inst, adv, netTotal, total time.Duration
	}
	var samples []sample
	for i := 0; i < runs; i++ {
		// ±4% per-delivery jitter stands in for the measurement noise
		// behind the paper's standard deviations.
		d, err := core.NewDeployment(core.DeploymentConfig{ProcJitter: 0.04, Seed: int64(i + 1)})
		if err != nil {
			return nil, err
		}
		th, err := d.AddThing("bench")
		if err != nil {
			return nil, err
		}
		// Vary the peripheral identifier across runs: resistor values (and
		// hence identification and advertisement timing) depend on it.
		if err := d.PlugTMP36(th, i%3); err != nil {
			return nil, err
		}
		d.Run()
		trs := th.Traces()
		if len(trs) != 1 || !trs[0].Done {
			return nil, fmt.Errorf("experiments: plug-in did not complete")
		}
		tr := trs[0]
		samples = append(samples, sample{
			gen: tr.GenerateAddr, join: tr.JoinGroup, req: tr.RequestDriver,
			inst: tr.InstallDriver, adv: tr.Advertise,
			netTotal: tr.NetworkTotal, total: tr.Total,
		})
	}
	stat := func(name string, get func(sample) time.Duration) Table4Row {
		var sum float64
		for _, s := range samples {
			sum += float64(get(s))
		}
		mean := sum / float64(len(samples))
		var varsum float64
		for _, s := range samples {
			dev := float64(get(s)) - mean
			varsum += dev * dev
		}
		sd := math.Sqrt(varsum / float64(len(samples)))
		return Table4Row{Operation: name, Mean: time.Duration(mean), Stddev: time.Duration(sd)}
	}
	res := &Table4Result{
		Rows: []Table4Row{
			stat("Generate Multicast Address", func(s sample) time.Duration { return s.gen }),
			stat("Join Multicast Group", func(s sample) time.Duration { return s.join }),
			stat("Request driver", func(s sample) time.Duration { return s.req }),
			stat("Install Driver", func(s sample) time.Duration { return s.inst }),
			stat("Advertise Peripheral", func(s sample) time.Duration { return s.adv }),
		},
		Total:    stat("Total time", func(s sample) time.Duration { return s.netTotal }),
		EndToEnd: stat("End-to-end (incl. hardware ID)", func(s sample) time.Duration { return s.total }),
	}
	return res, nil
}

// Table4Text renders Table 4 from a Table4 result.
func Table4Text(res *Table4Result) string {
	var sb strings.Builder
	sb.WriteString("Table 4 — peripheral announcement and driver installation (one hop)\n")
	fmt.Fprintf(&sb, "%-34s %-14s %-14s\n", "operation", "average", "stddev")
	for _, r := range res.Rows {
		fmt.Fprintf(&sb, "%-34s %-14s %-14s\n", r.Operation, r.Mean.Round(10*time.Microsecond), r.Stddev.Round(10*time.Microsecond))
	}
	fmt.Fprintf(&sb, "%-34s %-14s %-14s\n", res.Total.Operation, res.Total.Mean.Round(10*time.Microsecond), res.Total.Stddev.Round(10*time.Microsecond))
	fmt.Fprintf(&sb, "%-34s %-14s %-14s\n", res.EndToEnd.Operation, res.EndToEnd.Mean.Round(10*time.Microsecond), res.EndToEnd.Stddev.Round(10*time.Microsecond))
	sb.WriteString("(paper: 2.59 / 5.44 / 53.91 / 59.50 / 45.37 ms, total 188.53 ms, end-to-end 488.53 ms)\n")
	return sb.String()
}

// ---------------------------------------------------------------------------
// Ablations

// AblationPulse compares the paper's 4-short-pulses identifier encoding
// against single-pulse encodings at increasing widths — the design decision
// of Section 3.
func AblationPulse() string {
	var sb strings.Builder
	sb.WriteString("Ablation — identifier encoding: worst-case identification signal\n")
	fmt.Fprintf(&sb, "%-28s %s\n", "scheme", "worst-case signal length")
	fourPulse := hw.DefaultPulseCoder.TrainDuration(0xffffffff)
	fmt.Fprintf(&sb, "%-28s %v\n", "4 x 8-bit pulses (µPnP)", fourPulse)
	for _, bits := range []uint{8, 12, 16, 24, 32} {
		sc := hw.SinglePulseCoder{TMin: hw.DefaultPulseCoder.TMin, Ratio: hw.DefaultPulseCoder.Ratio, Bits: bits}
		wc := sc.WorstCase()
		label := fmt.Sprintf("1 x %d-bit pulse", bits)
		if wc == time.Duration(math.MaxInt64) {
			fmt.Fprintf(&sb, "%-28s > 292 years (overflows any timer)\n", label)
		} else {
			fmt.Fprintf(&sb, "%-28s %v\n", label, wc)
		}
	}
	return sb.String()
}

// AblationMulticastResult compares SMRF multicast dissemination against
// naive per-Thing unicast for discovery traffic.
type AblationMulticastResult struct {
	Things                 int
	MulticastTransmissions int
	UnicastTransmissions   int
}

// AblationMulticast measures discovery cost (per-hop frame transmissions)
// in a binary-tree network of n Things, multicast vs unicast.
func AblationMulticast(n int) (*AblationMulticastResult, error) {
	build := func() (*netsim.Network, []*netsim.Node, *netsim.Node, error) {
		net := netsim.New(netsim.Config{})
		root, err := net.AddNode(addrN(0), nil)
		if err != nil {
			return nil, nil, nil, err
		}
		nodes := []*netsim.Node{root}
		for i := 1; i <= n; i++ {
			parent := nodes[(i-1)/2]
			nd, err := net.AddNode(addrN(i), parent)
			if err != nil {
				return nil, nil, nil, err
			}
			nodes = append(nodes, nd)
		}
		return net, nodes[1:], root, nil
	}

	// Multicast: all Things join one group; root sends one discovery.
	netM, things, rootM, err := build()
	if err != nil {
		return nil, err
	}
	group := netsim.MulticastAddr(netsim.PrefixFromAddr(rootM.Addr()), 0xad1cbe01)
	for _, th := range things {
		th.JoinGroup(group)
		th.Bind(func(netsim.Message) {})
	}
	rootM.Send(group, []byte("discovery"))
	netM.RunUntilIdle(0)
	mTx := netM.Stats().Transmissions

	// Unicast: root sends one message per Thing.
	netU, thingsU, rootU, err := build()
	if err != nil {
		return nil, err
	}
	for _, th := range thingsU {
		th.Bind(func(netsim.Message) {})
		rootU.Send(th.Addr(), []byte("discovery"))
	}
	netU.RunUntilIdle(0)
	uTx := netU.Stats().Transmissions

	return &AblationMulticastResult{Things: n, MulticastTransmissions: mTx, UnicastTransmissions: uTx}, nil
}

// addrN generates distinct unicast addresses for ablation topologies.
func addrN(i int) netip.Addr {
	return netip.MustParseAddr(fmt.Sprintf("2001:db8::%x", 0x1000+i))
}

// AblationMulticastText sweeps network sizes.
func AblationMulticastText() string {
	var sb strings.Builder
	sb.WriteString("Ablation — discovery dissemination: SMRF multicast vs unicast flooding\n")
	fmt.Fprintf(&sb, "%-8s %-26s %-26s\n", "things", "multicast transmissions", "unicast transmissions")
	for _, n := range []int{3, 7, 15, 31, 63} {
		r, err := AblationMulticast(n)
		if err != nil {
			sb.WriteString(err.Error())
			break
		}
		fmt.Fprintf(&sb, "%-8d %-26d %-26d\n", r.Things, r.MulticastTransmissions, r.UnicastTransmissions)
	}
	return sb.String()
}

// ---------------------------------------------------------------------------
// The report

// DefaultRuns is the Table 4 repetition count of the committed report.
const DefaultRuns = 10

// Report is one rendering of the report for a Table 4 run count. The
// table4 and endtoend sections both read Table 4: it is simulated once, on
// first use, and both render from that one result. Not safe for concurrent
// use.
type Report struct {
	runs int
	t4   *Table4Result
	err  error
}

// NewReport returns a report whose Table 4 averages over runs plug-ins.
func NewReport(runs int) *Report { return &Report{runs: runs} }

// withTable4 renders from the report's Table 4 result, or returns the
// error simulating it gave.
func (r *Report) withTable4(render func(*Table4Result) string) string {
	if r.t4 == nil && r.err == nil {
		r.t4, r.err = Table4(r.runs)
	}
	if r.err != nil {
		return r.err.Error()
	}
	return render(r.t4)
}

// Sections are the report's experiments in report order, each under the
// name upnp-experiments -exp takes.
var Sections = []struct {
	Name string
	Text func(r *Report) string
}{
	{"waveforms", func(*Report) string { return Waveforms() }},
	{"fig12", func(*Report) string { return Figure12Table() }},
	{"table2", func(*Report) string { return Table2Text() }},
	{"table3", func(*Report) string { return Table3Text() }},
	{"table4", func(r *Report) string { return r.withTable4(Table4Text) }},
	{"endtoend", func(r *Report) string {
		return r.withTable4(func(res *Table4Result) string {
			return fmt.Sprintf("End-to-end plug-and-play (identification + driver install + group join):\n%s: %v ± %v (paper: 488.53 ms)\n",
				res.EndToEnd.Operation, res.EndToEnd.Mean, res.EndToEnd.Stddev)
		})
	}},
	{"ablation", func(*Report) string { return AblationPulse() + "\n" + AblationMulticastText() }},
}

// All renders every section in report order, each followed by a blank
// line. Every number in it is virtual or counted, so the output is a pure
// function of runs; at DefaultRuns it is the committed EXPERIMENTS.md.
func All(runs int) string {
	r := NewReport(runs)
	var sb strings.Builder
	for _, s := range Sections {
		sb.WriteString(s.Text(r))
		sb.WriteString("\n")
	}
	return sb.String()
}

var _ = thing.CostGenerateAddr // keep import for documentation references
