package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"strconv"
	"strings"
	"time"

	"micropnp"
	"micropnp/internal/gateway"
)

// http-rw drives a seeded sequence of SDK reads and relay writes through the
// gateway over loopback and mixes in paged catalog listings.
const (
	rwThings      = 1024
	rwWarmupOps   = 4000
	rwEnvEvery    = 1000 // operations between environment changes
	rwWriteShare  = 0.15
	httpListShare = 0.03
	httpPageSize  = 50
	// Operations per second of --seconds, sized so a run measures about
	// that long on a 2-core x86 box.
	httpOpsPerSecond = 5000
)

// Sub-streams of the workload seed.
const (
	streamOps = iota + 1
	streamEnv
	streamList
	streamWarmup
)

func subRand(seed int64, stream int) *rand.Rand {
	return rand.New(rand.NewSource(seed*1000003 + int64(stream)))
}

// rwOp is one SDK operation of the seeded sequence.
type rwOp struct {
	t     *thingRef
	dev   micropnp.DeviceID
	write bool
	val   int32
}

func nextRWOp(w *world, rng *rand.Rand) rwOp {
	if rng.Float64() < rwWriteShare {
		return rwOp{t: w.relays[rng.Intn(len(w.relays))], dev: micropnp.Relay, write: true, val: int32(rng.Intn(256))}
	}
	t := w.things[rng.Intn(len(w.things))]
	if t.extra != 0 && rng.Intn(2) == 1 {
		return rwOp{t: t, dev: t.extra}
	}
	return rwOp{t: t, dev: t.sensor}
}

func kindOf(op rwOp) opKind {
	if op.write {
		return opWrite
	}
	return opRead
}

// httpFront is the gateway on a loopback listener plus the one keep-alive
// client connection the workload drives it through.
type httpFront struct {
	base   string
	srv    *http.Server
	served chan struct{}
	tp     *http.Transport
	client *http.Client
	buf    bytes.Buffer
	body   bytes.Buffer
}

// spanHeader carries the client's op id and round-trip span id to the
// server side, so the handler span links to its parent.
const spanHeader = "X-Perfbench-Span"

// tracedHandler times gateway.Server.ServeHTTP when tracing is on.
type tracedHandler struct {
	next http.Handler
	tr   *tracer
}

func (h tracedHandler) ServeHTTP(rw http.ResponseWriter, r *http.Request) {
	if h.tr == nil {
		h.next.ServeHTTP(rw, r)
		return
	}
	var op, parent int64
	if v := r.Header.Get(spanHeader); v != "" {
		a, b, _ := strings.Cut(v, "/")
		op, _ = strconv.ParseInt(a, 10, 64)
		parent, _ = strconv.ParseInt(b, 10, 64)
	}
	sp := h.tr.begin(spanGatewayHandler, op, &spanRef{id: parent, name: spanHTTPRoundTrip})
	h.next.ServeHTTP(rw, r)
	h.tr.end(sp)
}

func buildHTTP(seed int64, tr *tracer) (*world, error) {
	d, err := micropnp.NewDeployment(micropnp.WithSeed(seed), micropnp.WithProcJitter(0.04))
	if err != nil {
		return nil, err
	}
	w := &world{d: d, tr: tr, lossless: true}
	if w.cl, err = d.AddClient(); err != nil {
		return nil, err
	}
	if err := w.observeAdverts(); err != nil {
		return nil, err
	}
	if err := w.buildTree(rwThings); err != nil {
		return nil, err
	}
	w.drain()
	if err := w.checkSetup(); err != nil {
		return nil, err
	}
	w.setEnv(randomEnv(subRand(seed, streamWarmup)))
	gw, err := gateway.New(gateway.Config{Deployment: w.d, Client: w.cl, Catalog: w.cat})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	f := &httpFront{
		base:   "http://" + ln.Addr().String(),
		srv:    &http.Server{Handler: tracedHandler{next: gw, tr: tr}, ReadHeaderTimeout: 30 * time.Second},
		served: make(chan struct{}),
		tp:     &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true},
	}
	f.client = &http.Client{Transport: f.tp, Timeout: 30 * time.Second}
	go func() {
		defer close(f.served)
		_ = f.srv.Serve(ln) // returns http.ErrServerClosed once close shuts it down
	}()
	w.http = f
	rng := subRand(seed, streamWarmup)
	for i := 0; i < rwWarmupOps; i++ {
		if _, ok := w.httpOp(nextRWOp(w, rng), 0, nil, nil); !ok {
			w.close()
			return nil, fmt.Errorf("warm-up request %d failed", i)
		}
	}
	return w, nil
}

func (f *httpFront) close() {
	_ = f.srv.Close() // closes the listener and every connection
	<-f.served
	f.tp.CloseIdleConnections()
}

// do sends one request and reads the whole response body into f.buf.
func (f *httpFront) do(method, url string, body []byte, id int64, rt *spanRef) (*http.Response, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return nil, err
	}
	if rt != nil && rt.id != 0 {
		req.Header.Set(spanHeader, strconv.FormatInt(id, 10)+"/"+strconv.FormatInt(rt.id, 10))
	}
	resp, err := f.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	f.buf.Reset()
	_, err = f.buf.ReadFrom(resp.Body)
	return resp, err
}

// httpOp performs one operation through the gateway and checks the status,
// the decoded body and the physical effect.
func (w *world) httpOp(op rwOp, id int64, parent *spanRef, o *outcome) (time.Duration, bool) {
	f := w.http
	path := f.base + "/things/" + op.t.addr.String()
	rt := w.tr.begin(spanHTTPRoundTrip, id, parent)
	if op.write {
		f.body.Reset()
		fmt.Fprintf(&f.body, `{"values":[%d]}`, op.val)
		resp, err := f.do(http.MethodPut, path+"/write?peripheral="+op.dev.String(), f.body.Bytes(), id, &rt)
		w.tr.end(rt)
		return 0, err == nil && resp.StatusCode == http.StatusNoContent && op.t.relay.State() == byte(op.val)
	}
	resp, err := f.do(http.MethodGet, path+"/read?peripheral="+op.dev.String(), nil, id, &rt)
	w.tr.end(rt)
	if err != nil || resp.StatusCode != http.StatusOK {
		return 0, false
	}
	var rj gateway.ReadingJSON
	if err := json.Unmarshal(f.buf.Bytes(), &rj); err != nil {
		return 0, false
	}
	ns, err := strconv.ParseInt(resp.Header.Get("X-Upnp-Virtual-Ns"), 10, 64)
	if err != nil {
		return 0, false
	}
	virt := time.Duration(ns)
	if o != nil {
		o.recordRead(op.dev, virt)
	}
	return virt, rj.Thing == op.t.addr.String() && rj.Device == op.dev.String() && w.env.checkReading(op.dev, rj.Values)
}

// httpList fetches one catalog page and checks it against the catalog.
func (w *world) httpList(rng *rand.Rand, id int64, parent *spanRef) bool {
	want := w.cat.Size()
	offset := rng.Intn(want/httpPageSize+1) * httpPageSize
	rt := w.tr.begin(spanHTTPRoundTrip, id, parent)
	resp, err := w.http.do(http.MethodGet, fmt.Sprintf("%s/things?offset=%d&limit=%d", w.http.base, offset, httpPageSize), nil, id, &rt)
	w.tr.end(rt)
	if err != nil || resp.StatusCode != http.StatusOK {
		return false
	}
	var lj gateway.ListJSON
	if err := json.Unmarshal(w.http.buf.Bytes(), &lj); err != nil {
		return false
	}
	return lj.Total == want && lj.Offset == offset && lj.Count == len(lj.Things) &&
		lj.Count == min(httpPageSize, max(0, want-offset))
}

func measureHTTP(w *world, seed int64, seconds int) (*outcome, error) {
	n := seconds * httpOpsPerSecond
	o := newOutcome(w, n)
	ops, envs, lists := subRand(seed, streamOps), subRand(seed, streamEnv), subRand(seed, streamList)
	o.start(w)
	id := int64(0)
	for i := 0; i < n; i++ {
		if i%rwEnvEvery == 0 {
			w.setEnv(randomEnv(envs))
		}
		if lists.Float64() < httpListShare {
			root := w.tr.begin(spanOp, id, nil)
			t0 := time.Now()
			ok := w.httpList(lists, id, &root)
			el := time.Since(t0)
			w.tr.end(root)
			o.record(opList, el, ok)
			id++
		}
		op := nextRWOp(w, ops)
		root := w.tr.begin(spanOp, id, nil)
		t0 := time.Now()
		_, ok := w.httpOp(op, id, &root, o)
		el := time.Since(t0)
		w.tr.end(root)
		o.record(kindOf(op), el, ok)
		id++
	}
	o.stop(w)
	return o, nil
}
