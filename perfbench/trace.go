package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"time"
)

// spanName identifies a layer boundary the benchmark's own code crosses.
type spanName uint8

const (
	spanOp             spanName = iota // one workload operation
	spanSDKRead                        // Client.ReadInto
	spanSDKWrite                       // Client.Write
	spanSDKDiscover                    // Client.Discover
	spanSDKSubscribe                   // Client.Subscribe
	spanHotSwap                        // Thing.Unplug + plug + wait for the plug-in
	spanHTTPRoundTrip                  // one loopback HTTP exchange, client side
	spanGatewayHandler                 // gateway.Server.ServeHTTP, server side
	spanCatalogObserve                 // catalog.Observe from the advert hook
	spanNetsimDrive                    // Deployment.Run / RunFor / Quiesce / Conduct
	numSpanNames
)

var spanNames = [numSpanNames]string{
	"op", "sdk.read", "sdk.write", "sdk.discover", "sdk.subscribe", "hotswap",
	"http.roundtrip", "gateway.handler", "catalog.observe", "netsim.drive",
}

// maxKeptSpans bounds the spans written to the trace file: the first ones
// of the measure window. Totals cover every span, set-up included.
const maxKeptSpans = 20000

type span struct {
	Name   string `json:"name"`
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Op     int64  `json:"op"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// spanRef is an open span. The zero value (from a nil tracer) is inert.
type spanRef struct {
	name           spanName
	id, parent, op int64
	parentName     spanName
	start          time.Time
}

// tracer records spans in memory. A nil *tracer records nothing, so the
// untraced run pays one nil check per boundary.
type tracer struct {
	mu      sync.Mutex
	t0      time.Time
	keep    bool // the measure window is open
	next    int64
	kept    []span
	count   [numSpanNames]int64
	total   [numSpanNames]time.Duration
	covered [numSpanNames]time.Duration // time covered by direct children
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// openWindow starts keeping spans; their times count from now.
func (t *tracer) openWindow() {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.t0, t.keep = time.Now(), true
	t.mu.Unlock()
}

// begin opens a span; parent is the enclosing span (zero for a root).
func (t *tracer) begin(name spanName, op int64, parent *spanRef) spanRef {
	if t == nil {
		return spanRef{}
	}
	t.mu.Lock()
	t.next++
	id := t.next
	t.mu.Unlock()
	r := spanRef{name: name, id: id, op: op, start: time.Now()}
	if parent != nil && parent.id != 0 {
		r.parent, r.parentName = parent.id, parent.name
	}
	return r
}

// end closes a span.
func (t *tracer) end(r spanRef) {
	if t == nil || r.id == 0 {
		return
	}
	now := time.Now()
	d := now.Sub(r.start)
	t.mu.Lock()
	t.count[r.name]++
	t.total[r.name] += d
	if r.parent != 0 {
		t.covered[r.parentName] += d
	}
	if t.keep && len(t.kept) < maxKeptSpans {
		t.kept = append(t.kept, span{
			Name: spanNames[r.name], ID: r.id, Parent: r.parent, Op: r.op,
			Start: int64(r.start.Sub(t.t0)), End: int64(now.Sub(t.t0)),
		})
	}
	t.mu.Unlock()
}

// mean returns the mean duration of a span kind, or 0 if none was recorded.
func (t *tracer) mean(name spanName) time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.count[name] == 0 {
		return 0
	}
	return t.total[name] / time.Duration(t.count[name])
}

func (t *tracer) sum(name spanName) time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.total[name]
}

type spanTotal struct {
	Count   int64   `json:"count"`
	TotalMs float64 `json:"total_ms"`
	SelfMs  float64 `json:"self_ms"`
}

func (t *tracer) totals() map[string]spanTotal {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := map[string]spanTotal{}
	for n := spanName(0); n < numSpanNames; n++ {
		if t.count[n] > 0 {
			out[spanNames[n]] = spanTotal{Count: t.count[n], TotalMs: ms(t.total[n]), SelfMs: ms(t.total[n] - t.covered[n])}
		}
	}
	return out
}

// traceFile is the traced run's output: the kept spans, span totals with
// self time, per-package CPU shares and the run's metrics.
type traceFile struct {
	Workload    string               `json:"workload"`
	Seed        int64                `json:"seed"`
	Spans       []span               `json:"spans"`
	SpanTotals  map[string]spanTotal `json:"span_totals"`
	CPUPct      map[string]float64   `json:"cpu_pct"`
	Metrics     map[string]metric    `json:"metrics"`
	Diagnostics map[string]metric    `json:"diagnostics"`
}

func writeTraceFile(path string, tf *traceFile) error {
	b, err := json.MarshalIndent(tf, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// cpuLayers maps a Go package path to the layer its CPU samples count
// against. Packages not listed count as "other".
func cpuLayer(pkg string) string {
	switch pkg {
	case "micropnp":
		return "sdk"
	case "main":
		return "bench"
	}
	if rest, ok := strings.CutPrefix(pkg, "micropnp/internal/"); ok {
		switch rest {
		case "bytecode":
			return "vm"
		case "core", "energy", "driver", "dsl":
			return "other"
		}
		return rest
	}
	switch {
	case pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/"),
		pkg == "sync" || pkg == "sync/atomic" || pkg == "internal/sync":
		return "runtime"
	case pkg == "net" || pkg == "net/http" || pkg == "net/textproto" || pkg == "bufio" ||
		pkg == "internal/poll" || pkg == "syscall" || pkg == "internal/syscall/unix" ||
		strings.HasPrefix(pkg, "vendor/golang.org/x/net/"):
		return "nethttp"
	case pkg == "encoding/json" || pkg == "reflect" || pkg == "strconv" || pkg == "unicode/utf8":
		return "json"
	}
	return "other"
}

// funcPackage returns the package path of a symbol as pprof prints it,
// e.g. "micropnp/internal/netsim" for
// "micropnp/internal/netsim.(*Network).deliverLocked".
func funcPackage(sym string) string {
	slash := strings.LastIndexByte(sym, '/')
	dot := strings.IndexByte(sym[slash+1:], '.')
	if dot < 0 {
		return sym
	}
	return sym[:slash+1+dot]
}

// cpuShares groups a CPU profile's flat samples by layer with
// `go tool pprof -top`, as percentages of all samples.
func cpuShares(profile string) (map[string]float64, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	cmd := exec.CommandContext(ctx, "go", "tool", "pprof", "-top", "-nodecount=1000000",
		"-nodefraction=0", "-edgefraction=0", profile)
	var out, errb bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errb
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go tool pprof: %v: %s", err, errb.String())
	}
	shares := map[string]float64{}
	sc := bufio.NewScanner(&out)
	inTable := false
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if !inTable {
			inTable = len(f) == 5 && f[0] == "flat" && f[1] == "flat%"
			continue
		}
		if len(f) < 6 {
			continue
		}
		pct, err := strconv.ParseFloat(strings.TrimSuffix(f[1], "%"), 64)
		if err != nil {
			continue
		}
		shares[cpuLayer(funcPackage(strings.Join(f[5:], " ")))] += pct
	}
	if !inTable {
		return nil, fmt.Errorf("go tool pprof: no table in output")
	}
	return shares, nil
}
