// Package gateway is the HTTP/JSON front door over the µPnP SDK: an edge
// service that exposes a deployment's peripherals to plain web clients, the
// way the paper's gateway scenarios front 6LoWPAN networks with an IP-side
// service. It pairs a TTL-leased catalog (fed from live advertisements) with
// handlers that translate REST calls into SDK reads, writes, discoveries and
// subscription streams:
//
//	GET  /things                     paged, filtered catalog listing
//	GET  /things/{addr}              one Thing's catalogued peripherals
//	GET  /things/{addr}/read         unicast read (ReadInto, pooled scratch)
//	PUT  /things/{addr}/write        unicast write ({"values":[...]})
//	POST /discover                   multicast discovery (also refreshes leases)
//	GET  /things/{addr}/stream       SSE bridge over Subscribe
//	GET  /healthz                    liveness + mode
//	GET  /metrics                    text counters and latency quantiles
//
// Handlers deliberately attach no deadline to the SDK context: request
// deadlines come from the deployment's virtual-time request timeout, so
// virtual-mode latencies stay deterministic. Each data-path response carries
// the SDK call's virtual-time span in the X-Upnp-Virtual-Ns header — the
// latency signal load generators record in virtual mode, where wall time is
// meaningless.
//
// Every JSON reply is compact and newline-terminated, the bytes of
// json.Marshal plus "\n": it is encoded into a pooled buffer and sent with
// its Content-Length in one Write, and the SSE bridge encodes its data lines
// through the same pool. Query parameters are read straight from the raw
// query (queryValue), with url.ParseQuery's semantics but no url.Values map.
//
// The SSE bridge gives every stream client a private buffered send queue: a
// slow consumer sheds (drops) readings once its queue is full rather than
// backpressuring the advert/stream delivery goroutine, which must never
// block.
package gateway

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/netip"
	"net/url"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"micropnp"
	"micropnp/internal/catalog"
	"micropnp/internal/loadgen"
)

// streamBuffer is the per-client SSE send-queue depth: a reading arriving
// at a full queue is shed.
const streamBuffer = 16

// Backend is the SDK data-path surface the gateway fronts. Both
// *micropnp.Client (one deployment) and *micropnp.Fleet (a federation,
// routing by address prefix) satisfy it with identical semantics — the
// handlers never know which they talk to.
type Backend interface {
	ReadInto(ctx context.Context, thing netip.Addr, id micropnp.DeviceID, scratch []int32) (micropnp.Reading, error)
	Write(ctx context.Context, thing netip.Addr, id micropnp.DeviceID, vals []int32) error
	Discover(ctx context.Context, id micropnp.DeviceID) ([]micropnp.Advert, error)
	Subscribe(ctx context.Context, thing netip.Addr, id micropnp.DeviceID, onReading func(micropnp.Reading)) (*micropnp.Subscription, error)
}

// Config wires a Server to a deployment or a whole fleet.
type Config struct {
	// Deployment and Client front a single deployment. Mutually exclusive
	// with Fleet.
	Deployment *micropnp.Deployment
	Client     *micropnp.Client
	// Fleet fronts a federation: requests route by Thing address prefix,
	// and each data-path response's X-Upnp-Virtual-Ns span is measured on
	// the owning member's clock (members keep independent timelines).
	Fleet *micropnp.Fleet
	// Catalog is the lease registry backing the listing endpoints. The
	// caller owns wiring — Client.AddAdvertHook(Catalog.Observe) feeds it
	// the whole advert flow, or one catalog.AddFeed per fleet member — and
	// the sweep goroutine; the gateway only reads it.
	Catalog *catalog.Catalog
}

// Server is the gateway's http.Handler. Create with New.
type Server struct {
	deps  []*micropnp.Deployment // fleet members, or the one deployment
	be    Backend
	fleet *micropnp.Fleet // nil when fronting a single deployment
	cat   *catalog.Catalog
	mux   *http.ServeMux

	requests      atomic.Uint64
	errs          atomic.Uint64
	inFlight      atomic.Int64
	streamClients atomic.Int64
	streamSent    atomic.Uint64
	streamDrops   atomic.Uint64

	// Virtual-time latency histograms of the SDK calls behind the data-path
	// endpoints (the same log-linear histogram the load generator gates on).
	readLat     loadgen.Histogram
	writeLat    loadgen.Histogram
	discoverLat loadgen.Histogram

	// scratch pools per-request ReadInto value buffers so steady-state
	// gateway reads stay off the per-read allocation path.
	scratch sync.Pool
}

// New builds the gateway server over one deployment (Deployment+Client) or a
// federation (Fleet).
func New(cfg Config) (*Server, error) {
	if cfg.Catalog == nil {
		return nil, fmt.Errorf("gateway: Config.Catalog is required")
	}
	s := &Server{
		cat: cfg.Catalog,
		mux: http.NewServeMux(),
	}
	switch {
	case cfg.Fleet != nil:
		if cfg.Deployment != nil || cfg.Client != nil {
			return nil, fmt.Errorf("gateway: Config.Fleet is mutually exclusive with Deployment/Client")
		}
		s.fleet = cfg.Fleet
		s.deps = cfg.Fleet.Deployments()
		s.be = cfg.Fleet
	case cfg.Deployment != nil && cfg.Client != nil:
		s.deps = []*micropnp.Deployment{cfg.Deployment}
		s.be = cfg.Client
	default:
		return nil, fmt.Errorf("gateway: need Config.Fleet, or Config.Deployment and Config.Client")
	}
	s.scratch.New = func() any { b := make([]int32, 0, 16); return &b }
	s.mux.HandleFunc("GET /things", s.handleList)
	s.mux.HandleFunc("GET /things/{addr}", s.handleThing)
	s.mux.HandleFunc("GET /things/{addr}/read", s.handleRead)
	s.mux.HandleFunc("PUT /things/{addr}/write", s.handleWrite)
	s.mux.HandleFunc("POST /discover", s.handleDiscover)
	s.mux.HandleFunc("GET /things/{addr}/stream", s.handleStream)
	s.mux.HandleFunc("POST /admin/fail-manager", s.handleFailManager)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	return s, nil
}

// clockFor resolves the deployment whose virtual clock times a request on a
// Thing address: the owning fleet member, or the single fronted deployment.
// Unroutable addresses fall back to member 0 — the SDK call will fail with
// its own routing error, and the span is still well-defined.
func (s *Server) clockFor(thing netip.Addr) *micropnp.Deployment {
	if s.fleet != nil {
		if d := s.fleet.DeploymentFor(thing); d != nil {
			return d
		}
	}
	return s.deps[0]
}

// ServeHTTP dispatches with request/in-flight accounting.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.requests.Add(1)
	s.inFlight.Add(1)
	defer s.inFlight.Add(-1)
	s.mux.ServeHTTP(w, r)
}

// ---------------------------------------------------------------------------
// JSON shapes

// EntryJSON is the wire form of one catalogued peripheral.
type EntryJSON struct {
	Thing       string `json:"thing"`
	Device      string `json:"device"`
	Name        string `json:"name,omitempty"`
	Units       string `json:"units,omitempty"`
	Channel     int    `json:"channel"`
	FirstSeenNs int64  `json:"first_seen_ns"`
	LastSeenNs  int64  `json:"last_seen_ns"`
	ExpiresNs   int64  `json:"expires_ns"`
	Solicited   bool   `json:"solicited"`
}

func entryJSON(e catalog.Entry) EntryJSON {
	return EntryJSON{
		Thing:       e.Thing.String(),
		Device:      e.Device.String(),
		Name:        e.Name,
		Units:       e.Units,
		Channel:     e.Channel,
		FirstSeenNs: int64(e.FirstSeen),
		LastSeenNs:  int64(e.LastSeen),
		ExpiresNs:   int64(e.Expires),
		Solicited:   e.Solicited,
	}
}

// ListJSON is the paged listing response.
type ListJSON struct {
	Total  int         `json:"total"`
	Offset int         `json:"offset"`
	Count  int         `json:"count"`
	Things []EntryJSON `json:"things"`
}

// ReadingJSON is the wire form of one reading.
type ReadingJSON struct {
	Thing  string  `json:"thing"`
	Device string  `json:"device"`
	Values []int32 `json:"values"`
	Units  string  `json:"units,omitempty"`
	AtNs   int64   `json:"at_ns"`
}

// AdvertJSON is the wire form of one discovery sighting.
type AdvertJSON struct {
	Thing     string `json:"thing"`
	Device    string `json:"device"`
	Name      string `json:"name,omitempty"`
	Units     string `json:"units,omitempty"`
	Channel   int    `json:"channel"`
	Solicited bool   `json:"solicited"`
	AtNs      int64  `json:"at_ns"`
}

type errorJSON struct {
	Error string `json:"error"`
}

// ---------------------------------------------------------------------------
// Helpers

// deviceNames maps the CLI/JSON names of the shipped peripherals; numeric
// forms (0x04000000 or decimal) are accepted everywhere too.
var deviceNames = map[string]micropnp.DeviceID{
	"tmp36":   micropnp.TMP36,
	"hih4030": micropnp.HIH4030,
	"bmp180":  micropnp.BMP180,
	"id20la":  micropnp.ID20LA,
	"adxl345": micropnp.ADXL345,
	"relay":   micropnp.Relay,
	"all":     micropnp.AllPeripherals,
}

// ParseDevice resolves a device-type argument: a shipped-peripheral name
// (tmp36, relay, ..., all) or a numeric identifier (0x-prefixed or decimal).
func ParseDevice(s string) (micropnp.DeviceID, error) {
	if id, ok := deviceNames[strings.ToLower(s)]; ok {
		return id, nil
	}
	n, err := strconv.ParseUint(s, 0, 32)
	if err != nil {
		names := make([]string, 0, len(deviceNames))
		for name := range deviceNames {
			names = append(names, name)
		}
		sort.Strings(names)
		return 0, fmt.Errorf("unknown device %q (names: %s; or a numeric id)", s, strings.Join(names, ", "))
	}
	return micropnp.DeviceID(n), nil
}

// reply is one pooled response body and the encoder that writes into it.
type reply struct {
	bytes.Buffer
	enc *json.Encoder
}

// maxPooledReply bounds the buffer a reply may keep in the pool, so one
// unpaged listing does not pin its size for every later read.
const maxPooledReply = 64 << 10

var replies = sync.Pool{New: func() any {
	rp := new(reply)
	rp.enc = json.NewEncoder(&rp.Buffer)
	return rp
}}

// encodeReply takes a pooled reply and writes prefix, then v as compact
// JSON and a newline: the bytes of json.Marshal(v) plus "\n". The caller
// returns it with putReply.
func encodeReply(prefix string, v any) (*reply, error) {
	rp := replies.Get().(*reply)
	rp.Reset()
	rp.WriteString(prefix)
	if err := rp.enc.Encode(v); err != nil {
		putReply(rp)
		return nil, err
	}
	return rp, nil
}

func putReply(rp *reply) {
	if rp.Cap() <= maxPooledReply {
		replies.Put(rp)
	}
}

// writeJSON sends v as one compact, newline-terminated JSON body with its
// Content-Length, in a single Write.
func (s *Server) writeJSON(w http.ResponseWriter, status int, v any) {
	rp, err := encodeReply("", v)
	if err != nil {
		// Every reply shape is plain data; the error reply always encodes.
		s.fail(w, http.StatusInternalServerError, "encoding reply: %v", err)
		return
	}
	defer putReply(rp)
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(rp.Len()))
	w.WriteHeader(status)
	_, _ = w.Write(rp.Bytes()) // a failed write means the client went away
}

func (s *Server) fail(w http.ResponseWriter, status int, format string, args ...any) {
	s.errs.Add(1)
	s.writeJSON(w, status, errorJSON{Error: fmt.Sprintf(format, args...)})
}

// failSDK maps an SDK error to a status: unreachable/lost → 504, no such
// peripheral → 404, rejected write → 409, closed deployment → 503,
// cancelled request → 499 (client went away; nobody reads it).
func (s *Server) failSDK(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, micropnp.ErrNoPeripheral):
		s.fail(w, http.StatusNotFound, "%v", err)
	case errors.Is(err, micropnp.ErrTimeout):
		s.fail(w, http.StatusGatewayTimeout, "%v", err)
	case errors.Is(err, micropnp.ErrWriteRejected):
		s.fail(w, http.StatusConflict, "%v", err)
	case errors.Is(err, micropnp.ErrClosed):
		s.fail(w, http.StatusServiceUnavailable, "%v", err)
	default:
		s.fail(w, 499, "%v", err)
	}
}

func (s *Server) pathAddr(w http.ResponseWriter, r *http.Request) (netip.Addr, bool) {
	a, err := netip.ParseAddr(r.PathValue("addr"))
	if err != nil {
		s.fail(w, http.StatusBadRequest, "bad thing address %q: %v", r.PathValue("addr"), err)
		return netip.Addr{}, false
	}
	return a, true
}

// queryValue returns the first value of key in the raw query, or "" when
// there is none: url.ParseQuery(raw).Get(key) without building the map. As
// there, a pair holding ';' or failing to unescape is skipped, and '+' reads
// as a space.
func queryValue(raw, key string) string {
	for raw != "" {
		var pair string
		pair, raw, _ = strings.Cut(raw, "&")
		if pair == "" || strings.Contains(pair, ";") {
			continue
		}
		k, v, _ := strings.Cut(pair, "=")
		if k, err := url.QueryUnescape(k); err != nil || k != key {
			continue
		}
		if v, err := url.QueryUnescape(v); err == nil {
			return v
		}
	}
	return ""
}

func (s *Server) queryDevice(w http.ResponseWriter, r *http.Request, param string, required bool) (micropnp.DeviceID, bool) {
	v := queryValue(r.URL.RawQuery, param)
	if v == "" {
		if required {
			s.fail(w, http.StatusBadRequest, "missing required query parameter %q", param)
			return 0, false
		}
		return micropnp.AllPeripherals, true
	}
	id, err := ParseDevice(v)
	if err != nil {
		s.fail(w, http.StatusBadRequest, "%v", err)
		return 0, false
	}
	return id, true
}

// ---------------------------------------------------------------------------
// Handlers

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	q := r.URL.RawQuery
	var f catalog.Filter
	if v := queryValue(q, "device"); v != "" {
		id, err := ParseDevice(v)
		if err != nil {
			s.fail(w, http.StatusBadRequest, "%v", err)
			return
		}
		f.Device = id
	}
	f.Units = queryValue(q, "units")
	if v := queryValue(q, "thing"); v != "" {
		a, err := netip.ParseAddr(v)
		if err != nil {
			s.fail(w, http.StatusBadRequest, "bad thing filter %q: %v", v, err)
			return
		}
		f.Thing = a
	}
	offset, limit := 0, 0
	if v := queryValue(q, "offset"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			s.fail(w, http.StatusBadRequest, "bad offset %q", v)
			return
		}
		offset = n
	}
	if v := queryValue(q, "limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			s.fail(w, http.StatusBadRequest, "bad limit %q", v)
			return
		}
		limit = n
	}
	page, total := s.cat.List(f, offset, limit)
	out := ListJSON{Total: total, Offset: offset, Count: len(page), Things: make([]EntryJSON, len(page))}
	for i, e := range page {
		out.Things[i] = entryJSON(e)
	}
	s.writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleThing(w http.ResponseWriter, r *http.Request) {
	a, ok := s.pathAddr(w, r)
	if !ok {
		return
	}
	entries := s.cat.Thing(a)
	if len(entries) == 0 {
		s.fail(w, http.StatusNotFound, "no catalogued peripherals on %s", a)
		return
	}
	out := make([]EntryJSON, len(entries))
	for i, e := range entries {
		out[i] = entryJSON(e)
	}
	s.writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleRead(w http.ResponseWriter, r *http.Request) {
	a, ok := s.pathAddr(w, r)
	if !ok {
		return
	}
	dev, ok := s.queryDevice(w, r, "peripheral", true)
	if !ok {
		return
	}
	buf := s.scratch.Get().(*[]int32)
	defer s.scratch.Put(buf)
	d := s.clockFor(a)
	start := d.Now()
	reading, err := s.be.ReadInto(r.Context(), a, dev, (*buf)[:0])
	span := d.Now() - start
	if err != nil {
		s.failSDK(w, err)
		return
	}
	*buf = reading.Values // keep the (possibly grown) buffer for the pool
	s.readLat.Record(int64(span))
	s.setSpan(w, a, span)
	// The reading's values alias the pooled scratch: the JSON encoder reads
	// them before this handler returns the buffer, so no copy is needed.
	s.writeJSON(w, http.StatusOK, ReadingJSON{
		Thing:  reading.Thing.String(),
		Device: reading.Device.String(),
		Values: reading.Values,
		Units:  reading.Units,
		AtNs:   int64(reading.At),
	})
}

func (s *Server) handleWrite(w http.ResponseWriter, r *http.Request) {
	a, ok := s.pathAddr(w, r)
	if !ok {
		return
	}
	dev, ok := s.queryDevice(w, r, "peripheral", true)
	if !ok {
		return
	}
	var body struct {
		Values []int32 `json:"values"`
	}
	if err := json.NewDecoder(r.Body).Decode(&body); err != nil {
		s.fail(w, http.StatusBadRequest, "bad body: %v", err)
		return
	}
	if len(body.Values) == 0 {
		s.fail(w, http.StatusBadRequest, "body must carry a non-empty values array")
		return
	}
	d := s.clockFor(a)
	start := d.Now()
	err := s.be.Write(r.Context(), a, dev, body.Values)
	span := d.Now() - start
	if err != nil {
		s.failSDK(w, err)
		return
	}
	s.writeLat.Record(int64(span))
	s.setSpan(w, a, span)
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) handleDiscover(w http.ResponseWriter, r *http.Request) {
	dev, ok := s.queryDevice(w, r, "device", false)
	if !ok {
		return
	}
	// Discovery fans out across every member; members keep independent
	// clocks, so the span is the sum of per-member advances (a single
	// deployment reduces to the plain before/after difference).
	starts := make([]time.Duration, len(s.deps))
	for i, d := range s.deps {
		starts[i] = d.Now()
	}
	adverts, err := s.be.Discover(r.Context(), dev)
	var span time.Duration
	for i, d := range s.deps {
		span += d.Now() - starts[i]
	}
	if err != nil {
		s.failSDK(w, err)
		return
	}
	s.discoverLat.Record(int64(span))
	w.Header().Set("X-Upnp-Virtual-Ns", strconv.FormatInt(int64(span), 10))
	out := make([]AdvertJSON, len(adverts))
	for i, ad := range adverts {
		out[i] = AdvertJSON{
			Thing:     ad.Thing.String(),
			Device:    ad.Device.String(),
			Name:      ad.Name,
			Units:     ad.Units,
			Channel:   ad.Channel,
			Solicited: ad.Solicited,
			AtNs:      int64(ad.At),
		}
	}
	s.writeJSON(w, http.StatusOK, struct {
		Count   int          `json:"count"`
		Adverts []AdvertJSON `json:"adverts"`
	}{Count: len(out), Adverts: out})
}

func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	a, ok := s.pathAddr(w, r)
	if !ok {
		return
	}
	dev, ok := s.queryDevice(w, r, "peripheral", true)
	if !ok {
		return
	}
	flusher, canFlush := w.(http.Flusher)
	if !canFlush {
		s.fail(w, http.StatusInternalServerError, "response writer cannot stream")
		return
	}

	// Private buffered queue per client: the stream delivery goroutine
	// must never block, so a full queue sheds the reading instead.
	queue := make(chan micropnp.Reading, streamBuffer)
	sub, err := s.be.Subscribe(r.Context(), a, dev, func(rd micropnp.Reading) {
		// Readings alias stream-delivery buffers; copy values before they
		// cross into the writer goroutine.
		rd.Values = append([]int32(nil), rd.Values...)
		select {
		case queue <- rd:
		default:
			s.streamDrops.Add(1)
		}
	})
	if err != nil {
		s.failSDK(w, err)
		return
	}
	defer sub.Close()

	s.streamClients.Add(1)
	defer s.streamClients.Add(-1)

	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	flusher.Flush()

	// Poll Closed() at a coarse interval so a Thing-side stream teardown
	// ends the response even when no further reading arrives.
	closedTick := time.NewTicker(250 * time.Millisecond)
	defer closedTick.Stop()
	for {
		select {
		case <-r.Context().Done():
			return
		case <-closedTick.C:
			if sub.Closed() {
				_, _ = io.WriteString(w, "event: closed\ndata: {}\n\n")
				flusher.Flush()
				return
			}
		case rd := <-queue:
			rp, err := encodeReply("event: reading\ndata: ", ReadingJSON{
				Thing:  rd.Thing.String(),
				Device: rd.Device.String(),
				Values: rd.Values,
				Units:  rd.Units,
				AtNs:   int64(rd.At),
			})
			if err != nil {
				continue
			}
			rp.WriteByte('\n') // the encoder ended the data line; this ends the event
			_, _ = w.Write(rp.Bytes())
			putReply(rp)
			flusher.Flush()
			s.streamSent.Add(1)
		}
	}
}

// setSpan stamps a data-path response with the SDK call's virtual-time span
// and, when fronting a fleet, the index of the member that served it.
func (s *Server) setSpan(w http.ResponseWriter, thing netip.Addr, span time.Duration) {
	w.Header().Set("X-Upnp-Virtual-Ns", strconv.FormatInt(int64(span), 10))
	if s.fleet != nil {
		if d := s.fleet.DeploymentFor(thing); d != nil {
			for i, member := range s.deps {
				if member == d {
					w.Header().Set("X-Upnp-Deployment", strconv.Itoa(i))
					break
				}
			}
		}
	}
}

// handleFailManager crashes one anycast manager instance — the fault
// injection the failover smoke drives over HTTP: POST
// /admin/fail-manager?deployment=I&manager=J (both default 0). The fleet's
// in-flight installs must then finish via the surviving instances, which the
// caller can observe through the data-path endpoints staying green.
func (s *Server) handleFailManager(w http.ResponseWriter, r *http.Request) {
	q := r.URL.RawQuery
	depIdx, mgrIdx := 0, 0
	if v := queryValue(q, "deployment"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 || n >= len(s.deps) {
			s.fail(w, http.StatusBadRequest, "bad deployment %q (have %d)", v, len(s.deps))
			return
		}
		depIdx = n
	}
	if v := queryValue(q, "manager"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			s.fail(w, http.StatusBadRequest, "bad manager %q", v)
			return
		}
		mgrIdx = n
	}
	d := s.deps[depIdx]
	if err := d.FailManager(mgrIdx); err != nil {
		s.fail(w, http.StatusConflict, "%v", err)
		return
	}
	s.writeJSON(w, http.StatusOK, struct {
		Deployment int `json:"deployment"`
		Manager    int `json:"manager"`
		Managers   int `json:"managers"`
	}{Deployment: depIdx, Manager: mgrIdx, Managers: d.ManagerCount()})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	mode := "virtual"
	if s.deps[0].Realtime() {
		mode = "realtime"
	}
	out := struct {
		OK          bool    `json:"ok"`
		Mode        string  `json:"mode"`
		NowNs       int64   `json:"now_ns"`
		Deployments int     `json:"deployments,omitempty"`
		DepNowNs    []int64 `json:"deployment_now_ns,omitempty"`
		Catalog     int     `json:"catalog_size"`
	}{OK: true, Mode: mode, NowNs: int64(s.deps[0].Now()), Catalog: s.cat.Size()}
	if s.fleet != nil {
		out.Deployments = len(s.deps)
		out.DepNowNs = make([]int64, len(s.deps))
		for i, d := range s.deps {
			out.DepNowNs[i] = int64(d.Now())
		}
	}
	s.writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	st := s.cat.Stats()
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	var b strings.Builder
	line := func(name string, v any) { fmt.Fprintf(&b, "%s %v\n", name, v) }
	line("upnp_gateway_requests_total", s.requests.Load())
	line("upnp_gateway_errors_total", s.errs.Load())
	line("upnp_gateway_in_flight", s.inFlight.Load())
	line("upnp_gateway_catalog_size", st.Size)
	line("upnp_gateway_catalog_things", st.Things)
	line("upnp_gateway_catalog_observed_total", st.Observed)
	line("upnp_gateway_catalog_expired_total", st.Expired)
	line("upnp_gateway_catalog_sweeps_total", st.Sweeps)
	line("upnp_gateway_catalog_hits_total", st.Hits)
	line("upnp_gateway_catalog_misses_total", st.Misses)
	line("upnp_gateway_stream_clients", s.streamClients.Load())
	line("upnp_gateway_stream_sent_total", s.streamSent.Load())
	line("upnp_gateway_stream_dropped_total", s.streamDrops.Load())
	for _, h := range []struct {
		name string
		hist *loadgen.Histogram
	}{
		{"read", &s.readLat},
		{"write", &s.writeLat},
		{"discover", &s.discoverLat},
	} {
		line("upnp_gateway_"+h.name+"_count", h.hist.Count())
		if h.hist.Count() == 0 {
			continue
		}
		fmt.Fprintf(&b, "upnp_gateway_%s_virtual_ns{q=\"0.5\"} %d\n", h.name, h.hist.Quantile(0.5))
		fmt.Fprintf(&b, "upnp_gateway_%s_virtual_ns{q=\"0.9\"} %d\n", h.name, h.hist.Quantile(0.9))
		fmt.Fprintf(&b, "upnp_gateway_%s_virtual_ns{q=\"0.99\"} %d\n", h.name, h.hist.Quantile(0.99))
		fmt.Fprintf(&b, "upnp_gateway_%s_virtual_ns{q=\"1\"} %d\n", h.name, h.hist.Max())
	}
	_, _ = w.Write([]byte(b.String()))
}
