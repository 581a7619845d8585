package main

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
	"time"

	"micropnp"
)

// opKind classifies workload operations for counts and replays.
type opKind uint8

const (
	opRead opKind = iota
	opWrite
	opList
	opDiscover
	opSubscribe
	opHotSwap
	numOpKinds
)

var opKindNames = [numOpKinds]string{"read", "write", "list", "discover", "subscribe", "hotswap"}

// outcome is what one measured pass observed.
type outcome struct {
	attempted, failed int
	kinds             [numOpKinds]int
	failedKinds       [numOpKinds]int
	readsByDevice     map[micropnp.DeviceID]int
	wall              []time.Duration // per operation
	done              []time.Duration // per operation: completion, since the window opened
	readVirt          []time.Duration // per successful read, virtual
	elapsed           time.Duration
	table4            float64
	inflightMax       int
	lagVirt           time.Duration // open loop: summed issue lateness, virtual
	retries           int           // zoned-churn: calls repeated after a timeout
	streamBad         int           // zoned-churn: stream readings that failed the check

	began             time.Time
	mem0, mem1        runtime.MemStats
	net0, net1        micropnp.NetworkStats
	tr                *tracer
	opsPerS           float64
	wallP50, wallP99  float64
	readP50, readP99  float64
	liveHeapMB        float64
	plug              pluginStats
	scans, interrupts int
	uploads, catSize  int
	adverts           int
	virtualEnd        time.Duration
	allocsPerOp       float64
	allocBytesPerOp   float64
	gcCyclesPerKop    float64
}

func newOutcome(w *world, capacity int) *outcome {
	return &outcome{
		tr:            w.tr,
		readsByDevice: map[micropnp.DeviceID]int{},
		wall:          make([]time.Duration, 0, capacity),
		done:          make([]time.Duration, 0, capacity),
		readVirt:      make([]time.Duration, 0, capacity),
	}
}

// start opens the measure window.
func (o *outcome) start(w *world) {
	o.net0 = w.d.NetworkStats()
	runtime.ReadMemStats(&o.mem0)
	o.tr.openWindow()
	o.began = time.Now()
}

// stop closes the measure window.
func (o *outcome) stop(w *world) {
	o.elapsed = time.Since(o.began)
	runtime.ReadMemStats(&o.mem1)
	o.net1 = w.d.NetworkStats()
}

func (o *outcome) record(kind opKind, wall time.Duration, ok bool) {
	o.attempted++
	o.kinds[kind]++
	o.wall = append(o.wall, wall)
	o.done = append(o.done, time.Since(o.began))
	if !ok {
		o.failed++
		o.failedKinds[kind]++
	}
}

func (o *outcome) recordRead(dev micropnp.DeviceID, virt time.Duration) {
	o.readsByDevice[dev]++
	o.readVirt = append(o.readVirt, virt)
}

// finish reduces the per-operation samples, drops them, and reads the
// stats surfaces and the live heap.
func (o *outcome) finish(w *world) {
	o.opsPerS, o.wallP50, o.wallP99 = o.chunked()
	virt := sorted(o.readVirt, time.Millisecond)
	o.readP50, o.readP99 = quantile(virt, 0.50), quantile(virt, 0.99)
	o.wall, o.done, o.readVirt, virt = nil, nil, nil, nil

	ops := float64(o.attempted)
	o.allocBytesPerOp = float64(o.mem1.TotalAlloc-o.mem0.TotalAlloc) / ops
	o.allocsPerOp = float64(o.mem1.Mallocs-o.mem0.Mallocs) / ops
	o.gcCyclesPerKop = float64(o.mem1.NumGC-o.mem0.NumGC) / ops * 1000

	o.plug = w.plugins()
	o.scans, o.interrupts = w.boardStats()
	o.uploads = w.d.ManagerUploads()
	o.adverts = len(w.cl.Adverts())
	o.catSize = w.cat.Size()
	o.virtualEnd = w.d.Now()

	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	o.liveHeapMB = float64(m.HeapAlloc) / (1 << 20)
}

// windowChunks is the number of equal parts, in completion order, the
// measure window is cut into. Wall metrics are medians over the parts, so
// a burst of interference from outside the process moves a few parts, not
// the figure. On a shared VM the host's load changes this process's speed
// by up to a factor of two within a second, so parts of about a second
// follow it more closely than ten longer ones: 50 parts spread about a
// sixth less between runs than 10.
const windowChunks = 50

// minChunkOps is the fewest operations a part needs for its p99 to have
// ten samples beyond it; with fewer, the wall metrics cover the whole
// window.
const minChunkOps = 1000

// chunked returns the median over the window's parts of the operation
// rate, and of the parts' median and 99th-percentile operation wall times
// in µs.
func (o *outcome) chunked() (rate, p50, p99 float64) {
	n := len(o.wall)
	parts := windowChunks
	if n/parts < minChunkOps {
		parts = 1
	}
	var rates, p50s, p99s []float64
	var prev time.Duration
	for k := 0; k < parts; k++ {
		lo, hi := k*n/parts, (k+1)*n/parts
		if hi == lo {
			continue
		}
		if end := o.done[hi-1]; end > prev {
			rates = append(rates, float64(hi-lo)/(end-prev).Seconds())
			prev = end
		}
		lat := sorted(o.wall[lo:hi], time.Microsecond)
		p50s, p99s = append(p50s, quantile(lat, 0.50)), append(p99s, quantile(lat, 0.99))
	}
	return median(rates), median(p50s), median(p99s)
}

func sorted(ds []time.Duration, unit time.Duration) []float64 {
	f := make([]float64, len(ds))
	for i, d := range ds {
		f[i] = float64(d) / float64(unit)
	}
	sort.Float64s(f)
	return f
}

// failures names the failed operations by kind, for diagnostics.
func (o *outcome) failures() string {
	var parts []string
	for k, n := range o.failedKinds {
		if n > 0 {
			parts = append(parts, fmt.Sprintf("%s %d of %d", opKindNames[k], n, o.kinds[k]))
		}
	}
	return strings.Join(parts, ", ")
}

// endToEnd returns the untraced run's user-visible metrics.
func (o *outcome) endToEnd(setupS float64) map[string]metric {
	return map[string]metric{
		"setup_s":            {setupS, "s"},
		"ops_per_s":          {o.opsPerS, "1/s"},
		"op_wall_p50_us":     {o.wallP50, "us"},
		"success_ratio":      {float64(o.attempted-o.failed) / float64(o.attempted), "ratio"},
		"read_virt_p50_ms":   {o.readP50, "virt_ms"},
		"read_virt_p99_ms":   {o.readP99, "virt_ms"},
		"plugin_virt_ms":     {o.plug.total, "virt_ms"},
		"table4_err_pct":     {o.table4, "%"},
		"live_heap_mb":       {o.liveHeapMB, "MiB"},
		"alloc_bytes_per_op": {o.allocBytesPerOp, "B"},
	}
}

// netDelta is the measure window's change in the network counters.
func (o *outcome) netDelta() micropnp.NetworkStats {
	a, b := o.net0, o.net1
	return micropnp.NetworkStats{
		UnicastSent:      b.UnicastSent - a.UnicastSent,
		MulticastSent:    b.MulticastSent - a.MulticastSent,
		Transmissions:    b.Transmissions - a.Transmissions,
		Delivered:        b.Delivered - a.Delivered,
		Lost:             b.Lost - a.Lost,
		NoHandler:        b.NoHandler - a.NoHandler,
		ShardLanes:       b.ShardLanes,
		ShardRounds:      b.ShardRounds - a.ShardRounds,
		ShardEvents:      b.ShardEvents - a.ShardEvents,
		ShardLaneRounds:  b.ShardLaneRounds - a.ShardLaneRounds,
		ShardCrossMerged: b.ShardCrossMerged - a.ShardCrossMerged,
	}
}

// virtualPrint renders every virtual-time metric and exact count of the
// pass, for the traced/untraced agreement check.
func (o *outcome) virtualPrint() string {
	var b strings.Builder
	fmt.Fprintf(&b, "ops=%d failed=%d kinds=%v reads=%v ", o.attempted, o.failed, o.kinds, o.readsByDevice)
	fmt.Fprintf(&b, "read_p50=%v read_p99=%v plugin=%+v table4=%v lag=%v retries=%d ", o.readP50, o.readP99, o.plug, o.table4, o.lagVirt, o.retries)
	fmt.Fprintf(&b, "net=%+v uploads=%d scans=%d irq=%d catalog=%d adverts=%d end=%v", o.netDelta(), o.uploads, o.scans, o.interrupts, o.catSize, o.adverts, o.virtualEnd)
	return b.String()
}

// perLayer returns the traced run's per-layer metrics: exact counts from
// the stats surfaces, span means, replays and CPU shares.
func (o *outcome) perLayer(w *world, cpu map[string]float64) (map[string]metric, error) {
	n := o.netDelta()
	ops := float64(o.attempted)
	m := map[string]metric{
		"workload.ops":                 {ops, "count"},
		"workload.lag_virt_ms":         {safeDiv(ms(o.lagVirt), ops), "virt_ms"},
		"workload.retries":             {float64(o.retries), "count"},
		"netsim.unicast_sent":          {float64(n.UnicastSent), "count"},
		"netsim.multicast_sent":        {float64(n.MulticastSent), "count"},
		"netsim.transmissions_per_op":  {float64(n.Transmissions) / ops, "count"},
		"netsim.lost":                  {float64(n.Lost), "count"},
		"netsim.no_handler":            {float64(n.NoHandler), "count"},
		"netsim.rounds":                {float64(n.ShardRounds), "count"},
		"netsim.events_per_round":      {safeDiv(float64(n.ShardEvents), float64(n.ShardRounds)), "count"},
		"netsim.lane_occupancy":        {safeDiv(float64(n.ShardLaneRounds), float64(n.ShardRounds)*float64(n.ShardLanes)), "ratio"},
		"netsim.cross_merged":          {float64(n.ShardCrossMerged), "count"},
		"netsim.drive_ms":              {ms(o.tr.sum(spanNetsimDrive)), "ms"},
		"client.call_us.read":          {us(o.tr.mean(spanSDKRead)), "us"},
		"client.call_us.write":         {us(o.tr.mean(spanSDKWrite)), "us"},
		"client.call_us.discover":      {us(o.tr.mean(spanSDKDiscover)), "us"},
		"client.call_us.subscribe":     {us(o.tr.mean(spanSDKSubscribe)), "us"},
		"client.inflight_max":          {float64(o.inflightMax), "count"},
		"client.adverts_retained":      {float64(o.adverts), "count"},
		"thing.plugins":                {float64(o.plug.n), "count"},
		"thing.identify_virt_ms":       {o.plug.identify, "virt_ms"},
		"thing.request_driver_virt_ms": {o.plug.request, "virt_ms"},
		"thing.install_driver_virt_ms": {o.plug.install, "virt_ms"},
		"thing.advertise_virt_ms":      {o.plug.advertise, "virt_ms"},
		"hw.identifications":           {float64(o.scans), "count"},
		"hw.interrupts":                {float64(o.interrupts), "count"},
		"manager.uploads":              {float64(o.uploads), "count"},
		"catalog.observe_ns":           {float64(o.tr.mean(spanCatalogObserve)), "ns"},
		"catalog.size":                 {float64(o.catSize), "count"},
		"gateway.handler_us":           {us(o.tr.mean(spanGatewayHandler)), "us"},
		"gateway.transport_us":         {0, "us"},
		"runtime.gc_cycles_per_kop":    {o.gcCyclesPerKop, "1/kop"},
		"runtime.allocs_per_op":        {o.allocsPerOp, "allocs"},
	}
	if h := o.tr.mean(spanGatewayHandler); h > 0 {
		m["gateway.transport_us"] = metric{us(o.tr.mean(spanHTTPRoundTrip) - h), "us"}
	}
	for _, layer := range cpuLayerNames {
		m["cpu."+layer+"_pct"] = metric{cpu[layer], "%"}
	}
	replays, err := replayAll(w, o)
	if err != nil {
		return nil, err
	}
	for k, v := range replays {
		m[k] = v
	}
	return m, nil
}

// cpuLayerNames are the layers CPU shares are reported for.
var cpuLayerNames = []string{
	"netsim", "client", "sdk", "proto", "vm", "bus", "thing", "hw", "manager",
	"catalog", "gateway", "nethttp", "json", "runtime", "bench", "other",
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

func safeDiv(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
