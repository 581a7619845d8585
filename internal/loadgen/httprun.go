package loadgen

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"micropnp"
)

// HTTP client mode: when Config.Target names a running gateway
// (cmd/upnp-gateway), Run issues the weighted op mix as REST calls against
// it instead of in-process SDK calls — read (GET .../read), write
// (PUT .../write) and discover (POST /discover); the other op kinds have no
// HTTP surface and their weights are ignored. Targets are enumerated from
// the gateway's own paged catalog listing, so the workload exercises
// exactly what the gateway advertises.
//
// Latency is the SDK call's virtual-time span as reported by the gateway's
// X-Upnp-Virtual-Ns response header, in both clock modes — wall time spent
// in HTTP plumbing is not the paper's metric. Against a virtual-mode
// gateway that no other client is driving, a single-lane run is
// deterministic: the op schedule is a pure function of the seed and every
// virtual span is a constant of the (op, target) pair, so the percentile
// report reproduces bit for bit — what the CI gateway-smoke job gates with
// benchgate -latency. Multi-lane runs and realtime gateways keep the
// schedule deterministic but measure real interleavings.
//
// HTTP mode is count-based (HTTPOps operations split across Workers lanes)
// rather than time-based: the gateway owns the virtual clock, so the runner
// cannot schedule against it.

// httpEntry is the slice of the gateway's listing JSON the runner needs.
type httpEntry struct {
	Thing  string `json:"thing"`
	Device string `json:"device"`
}

// httpRunner drives one HTTP-mode run.
type httpRunner struct {
	cfg    Config
	base   string
	client *http.Client

	targets   []httpEntry // readable peripherals
	writables []httpEntry // relay banks
	things    int         // distinct Things listed

	stats    [opKinds]opStats
	laneHash []uint64
	laneOps  []atomic.Uint64
}

// runHTTP executes Run's HTTP client mode.
func runHTTP(cfg Config) (*Result, error) {
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	r := &httpRunner{
		cfg:  cfg,
		base: strings.TrimRight(cfg.Target, "/"),
		// Generous wall timeout: virtual-mode requests block while the
		// gateway pumps the simulator, which is fast but not instant.
		client: &http.Client{Timeout: 2 * time.Minute},
	}
	if cfg.Mix[OpRead]+cfg.Mix[OpWrite]+cfg.Mix[OpDiscover] == 0 {
		return nil, fmt.Errorf("loadgen: http mode needs read, write or discover weight in the mix (got %s)", cfg.Mix)
	}

	mode, startNs, err := r.healthz()
	if err != nil {
		return nil, err
	}
	if err := r.enumerate(); err != nil {
		return nil, err
	}
	if cfg.Mix[OpRead] > 0 && len(r.targets) == 0 {
		return nil, fmt.Errorf("loadgen: gateway %s lists no readable peripherals", r.base)
	}
	if cfg.Mix[OpWrite] > 0 && len(r.writables) == 0 {
		return nil, fmt.Errorf("loadgen: gateway %s lists no relay banks but the mix writes", r.base)
	}

	lanes := cfg.Workers
	r.laneHash = make([]uint64, lanes)
	for i := range r.laneHash {
		r.laneHash[i] = fnvOffset
	}
	r.laneOps = make([]atomic.Uint64, lanes)

	wallStart := time.Now()
	var wg sync.WaitGroup
	perLane := cfg.HTTPOps / lanes
	extra := cfg.HTTPOps % lanes
	var firstErr atomic.Value
	for lane := 0; lane < lanes; lane++ {
		n := perLane
		if lane < extra {
			n++
		}
		wg.Add(1)
		go func(lane, n int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(cfg.Seed + int64(lane)*7919))
			for i := 0; i < n; i++ {
				if err := r.execOne(rng, lane); err != nil {
					firstErr.CompareAndSwap(nil, err)
					return
				}
			}
		}(lane, n)
	}
	wg.Wait()
	if err, _ := firstErr.Load().(error); err != nil {
		return nil, err
	}
	wallElapsed := time.Since(wallStart)

	_, endNs, err := r.healthz()
	if err != nil {
		return nil, err
	}
	return r.result(mode, time.Duration(endNs-startNs), wallElapsed), nil
}

// healthz probes the gateway, returning its clock mode and virtual now.
func (r *httpRunner) healthz() (mode string, nowNs int64, err error) {
	resp, err := r.client.Get(r.base + "/healthz")
	if err != nil {
		return "", 0, fmt.Errorf("loadgen: gateway unreachable: %w", err)
	}
	defer resp.Body.Close()
	var hz struct {
		OK    bool   `json:"ok"`
		Mode  string `json:"mode"`
		NowNs int64  `json:"now_ns"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&hz); err != nil || !hz.OK {
		return "", 0, fmt.Errorf("loadgen: bad healthz from %s (err %v, ok %v)", r.base, err, hz.OK)
	}
	return hz.Mode, hz.NowNs, nil
}

// enumerate pages through GET /things, splitting entries into read targets
// (everything) and write targets (relay banks).
func (r *httpRunner) enumerate() error {
	seen := map[string]bool{}
	for offset := 0; ; {
		resp, err := r.client.Get(fmt.Sprintf("%s/things?offset=%d&limit=200", r.base, offset))
		if err != nil {
			return fmt.Errorf("loadgen: list things: %w", err)
		}
		var page struct {
			Total  int         `json:"total"`
			Count  int         `json:"count"`
			Things []httpEntry `json:"things"`
		}
		err = json.NewDecoder(resp.Body).Decode(&page)
		resp.Body.Close()
		if err != nil {
			return fmt.Errorf("loadgen: list things: %w", err)
		}
		for _, e := range page.Things {
			r.targets = append(r.targets, e)
			seen[e.Thing] = true
			if id, perr := strconv.ParseUint(e.Device, 0, 32); perr == nil && micropnp.DeviceID(id) == micropnp.Relay {
				r.writables = append(r.writables, e)
			}
		}
		offset += page.Count
		if page.Count == 0 || offset >= page.Total {
			break
		}
	}
	r.things = len(seen)
	return nil
}

// pickHTTPOp draws an op from the mix restricted to the HTTP-capable kinds.
func (r *httpRunner) pickHTTPOp(rng *rand.Rand) Op {
	total := r.cfg.Mix[OpRead] + r.cfg.Mix[OpWrite] + r.cfg.Mix[OpDiscover]
	w := rng.Intn(total)
	for _, op := range [...]Op{OpRead, OpWrite, OpDiscover} {
		if weight := r.cfg.Mix[op]; weight > 0 {
			if w < weight {
				return op
			}
			w -= weight
		}
	}
	return OpRead // unreachable
}

// execOne draws and issues one operation. Transport-level failures abort the
// run (the gateway died); HTTP-level failures are counted per op.
func (r *httpRunner) execOne(rng *rand.Rand, lane int) error {
	op := r.pickHTTPOp(rng)
	st := &r.stats[op]
	tgtIdx, wrIdx := -1, -1
	var req *http.Request
	var err error
	switch op {
	case OpWrite:
		wrIdx = rng.Intn(len(r.writables))
		tgt := r.writables[wrIdx]
		body, _ := json.Marshal(struct {
			Values []int32 `json:"values"`
		}{Values: []int32{int32(rng.Intn(256))}})
		req, err = http.NewRequest(http.MethodPut,
			fmt.Sprintf("%s/things/%s/write?peripheral=%s", r.base, tgt.Thing, tgt.Device),
			bytes.NewReader(body))
	case OpDiscover:
		disc := sensorCycle[rng.Intn(len(sensorCycle))]
		req, err = http.NewRequest(http.MethodPost,
			fmt.Sprintf("%s/discover?device=%s", r.base, disc), nil)
	default:
		tgtIdx = rng.Intn(len(r.targets))
		tgt := r.targets[tgtIdx]
		req, err = http.NewRequest(http.MethodGet,
			fmt.Sprintf("%s/things/%s/read?peripheral=%s", r.base, tgt.Thing, tgt.Device), nil)
	}
	if err != nil {
		return err
	}
	r.laneHash[lane] = fnvMix(r.laneHash[lane], uint64(op), uint64(tgtIdx+1), uint64(wrIdx+1))
	r.laneOps[lane].Add(1)
	st.issued.Add(1)

	resp, err := r.client.Do(req)
	if err != nil {
		return fmt.Errorf("loadgen: %s %s: %w", req.Method, req.URL, err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	switch {
	case resp.StatusCode < 300:
		st.completed.Add(1)
		if span, perr := strconv.ParseInt(resp.Header.Get("X-Upnp-Virtual-Ns"), 10, 64); perr == nil {
			st.hist.Record(span)
		}
	case resp.StatusCode == http.StatusGatewayTimeout:
		st.timeouts.Add(1)
	default:
		st.errors.Add(1)
	}
	return nil
}

// result assembles the Result in the shape benchgate -latency gates.
func (r *httpRunner) result(gwMode string, virtualSpan time.Duration, wall time.Duration) *Result {
	res := &Result{
		Scenario:  r.cfg.Scenario,
		Mode:      "http-" + gwMode,
		Seed:      r.cfg.Seed,
		Things:    r.things,
		Shape:     "gateway",
		Clients:   1,
		Arrival:   "closed",
		Workers:   r.cfg.Workers,
		Mix:       r.cfg.Mix.String(),
		MeasureNs: int64(virtualSpan),
		Drained:   true,
		Ops:       map[string]*OpResult{},
	}
	h := uint64(fnvOffset)
	for _, lh := range r.laneHash {
		h = fnvMix(h, lh)
	}
	res.ScheduleHash = fmt.Sprintf("%016x", h)
	res.LaneOps = make([]uint64, len(r.laneOps))
	for i := range r.laneOps {
		res.LaneOps[i] = r.laneOps[i].Load()
	}
	// Throughput over the gateway's virtual span; fall back to wall time
	// when the virtual clock did not move (e.g. an idle realtime gateway
	// at scale 1 measured over a very short run).
	secs := virtualSpan.Seconds()
	if secs <= 0 {
		secs = wall.Seconds()
	}
	for op := range r.stats {
		if r.stats[op].issued.Load() > 0 {
			res.addOp(Op(op), &r.stats[op], secs)
		}
	}
	return res
}
