package loadgen

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"

	"micropnp"
)

// OpResult summarizes one operation kind over the measure window.
type OpResult struct {
	// Issued counts operations whose (intended) start fell inside the
	// measure window; Count of them completed successfully, Errors failed
	// with a non-timeout error, Timeouts expired unanswered.
	Issued   uint64 `json:"issued"`
	Count    uint64 `json:"count"`
	Errors   uint64 `json:"errors"`
	Timeouts uint64 `json:"timeouts"`
	// ThroughputPerSec is successful completions per virtual second of the
	// measure window.
	ThroughputPerSec float64 `json:"throughput_per_sec"`
	// Latency percentiles over successful completions, in nanoseconds of
	// virtual time (mode-independent: realtime runs divide wall time by the
	// time scale through the deployment clock).
	MeanNs float64 `json:"mean_ns"`
	P50Ns  int64   `json:"p50_ns"`
	P90Ns  int64   `json:"p90_ns"`
	P99Ns  int64   `json:"p99_ns"`
	P999Ns int64   `json:"p999_ns"`
	MaxNs  int64   `json:"max_ns"`
}

// Result is one load run's machine-readable outcome (LOAD_result.json).
type Result struct {
	Scenario string `json:"scenario"`
	Mode     string `json:"mode"` // "virtual" or "realtime"
	Seed     int64  `json:"seed"`
	Things   int    `json:"things"`
	Shape    string `json:"shape"`
	Clients  int    `json:"clients"`
	Arrival  string `json:"arrival"`
	Process  string `json:"process,omitempty"`
	// RatePerSec is the configured open-loop arrival rate; Workers/ThinkNs
	// the closed-loop population.
	RatePerSec float64 `json:"rate_per_sec,omitempty"`
	Workers    int     `json:"workers,omitempty"`
	ThinkNs    int64   `json:"think_ns,omitempty"`
	TimeScale  float64 `json:"time_scale,omitempty"`
	// Zones is the zone-sharded lane count of a virtual run (0 = the
	// single-loop clock). Only the zone count is recorded, never the
	// worker bound: the parallel and sequential schedules of one config
	// are bit-identical, so their result JSON must be too.
	Zones int    `json:"zones,omitempty"`
	Mix   string `json:"mix"`
	// Deployments is the fleet size of a federated run (0/absent = one
	// deployment); Managers the per-deployment anycast redundancy when > 1.
	// ManagerFailNs records the injected manager-crash offset into the
	// workload (0 = no crash): the crash is part of the scenario, so two
	// runs only compare when it matches.
	Deployments   int   `json:"deployments,omitempty"`
	Managers      int   `json:"managers,omitempty"`
	ManagerFailNs int64 `json:"manager_fail_ns,omitempty"`

	// WarmupNs/MeasureNs/CooldownNs are the phase spans in virtual time.
	WarmupNs   int64 `json:"warmup_ns"`
	MeasureNs  int64 `json:"measure_ns"`
	CooldownNs int64 `json:"cooldown_ns"`

	// ScheduleHash fingerprints the issued op schedule (kind, target,
	// client and — for open-loop lanes — intended arrival time, FNV-1a
	// combined per lane): two runs with the same seed and config hash
	// identically even in realtime mode, where latencies differ.
	ScheduleHash string `json:"schedule_hash"`

	// Totals over the measure window, all operation kinds combined. Shed
	// counts open-loop arrivals dropped at the realtime in-flight bound;
	// Unresolved counts hot-swaps whose advertisement never arrived before
	// the run ended (they are also in the hotswap op's Timeouts).
	Issued     uint64 `json:"issued"`
	Completed  uint64 `json:"completed"`
	Errors     uint64 `json:"errors"`
	Timeouts   uint64 `json:"timeouts"`
	Shed       uint64 `json:"shed"`
	Unresolved uint64 `json:"unresolved"`
	// StreamReadings counts stream data deliveries observed on
	// subscriptions opened by the workload (any phase).
	StreamReadings uint64 `json:"stream_readings"`
	// MaxInFlight is the high-water mark of concurrently executing
	// operations (1 in single-loop virtual mode, up to one per zone lane
	// group in conducted zoned runs, ≤ Workers in closed-loop realtime).
	MaxInFlight int64 `json:"max_in_flight"`
	// LaneOps is the per-lane issued count (one lane per closed-loop
	// worker; one lane total in open loop).
	LaneOps []uint64 `json:"lane_ops"`
	// Drained reports whether the cooldown quiesce drained all in-flight
	// work before its horizon.
	Drained bool `json:"drained"`

	Ops map[string]*OpResult `json:"ops"`

	// Network holds the deployment's (or the fleet's summed) network
	// counters over the whole run, setup through teardown. It is a side
	// channel excluded from the JSON — the sharded clock's round telemetry
	// is an execution detail, like wall time — and Summarize prints its
	// shard summary.
	Network micropnp.NetworkStats `json:"-"`
}

// addOp summarizes one op kind's counters into Ops, with throughput over a
// measure span of secs seconds, and adds them to the run totals.
func (r *Result) addOp(op Op, st *opStats, secs float64) {
	o := &OpResult{
		Issued:   st.issued.Load(),
		Count:    st.completed.Load(),
		Errors:   st.errors.Load(),
		Timeouts: st.timeouts.Load(),
		MeanNs:   st.hist.Mean(),
		P50Ns:    st.hist.Quantile(0.50),
		P90Ns:    st.hist.Quantile(0.90),
		P99Ns:    st.hist.Quantile(0.99),
		P999Ns:   st.hist.Quantile(0.999),
		MaxNs:    st.hist.Max(),
	}
	if secs > 0 {
		o.ThroughputPerSec = float64(o.Count) / secs
	}
	r.Ops[op.String()] = o
	r.Issued += o.Issued
	r.Completed += o.Count
	r.Errors += o.Errors
	r.Timeouts += o.Timeouts
}

// WriteJSON writes the result, indented, to path ("-" for stdout). The
// parent directory is created if missing, and the file lands via a
// same-directory temp file renamed into place, so a reader (the CI gate) can
// never observe a torn half-written result and a crashed run leaves any
// previous result intact.
func (r *Result) WriteJSON(path string) error {
	out, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	out = append(out, '\n')
	if path == "-" {
		_, err = os.Stdout.Write(out)
		return err
	}
	dir := filepath.Dir(path)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	tmp, err := os.CreateTemp(dir, ".load-result-*.json")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(out); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	if err := os.Chmod(tmp.Name(), 0o644); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return nil
}

// Summarize prints a human-readable table of the result.
func (r *Result) Summarize(w io.Writer) {
	fmt.Fprintf(w, "scenario %s (%s, %s arrival, seed %d): %d things, mix %s\n",
		r.Scenario, r.Mode, r.Arrival, r.Seed, r.Things, r.Mix)
	if r.Deployments > 1 {
		fmt.Fprintf(w, "fleet: %d deployments, %d managers each", r.Deployments, r.Managers)
		if r.ManagerFailNs > 0 {
			fmt.Fprintf(w, ", manager 0/0 crashed %s into the workload", time.Duration(r.ManagerFailNs))
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "measure window %s (+%s warmup): %d issued, %d ok, %d errors, %d timeouts, %d shed; max in-flight %d; %d stream readings\n",
		time.Duration(r.MeasureNs), time.Duration(r.WarmupNs),
		r.Issued, r.Completed, r.Errors, r.Timeouts, r.Shed, r.MaxInFlight, r.StreamReadings)
	if line := r.Network.ShardSummary(); line != "" {
		fmt.Fprintln(w, line)
	}
	names := make([]string, 0, len(r.Ops))
	for name := range r.Ops {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%-17s %8s %8s %6s %6s %10s %10s %10s %10s %10s\n",
		"op", "count", "ops/s", "err", "tmo", "p50", "p90", "p99", "p99.9", "max")
	for _, name := range names {
		o := r.Ops[name]
		fmt.Fprintf(w, "%-17s %8d %8.2f %6d %6d %10s %10s %10s %10s %10s\n",
			name, o.Count, o.ThroughputPerSec, o.Errors, o.Timeouts,
			time.Duration(o.P50Ns), time.Duration(o.P90Ns), time.Duration(o.P99Ns),
			time.Duration(o.P999Ns), time.Duration(o.MaxNs))
	}
}
