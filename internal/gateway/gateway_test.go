package gateway

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"micropnp"
	"micropnp/internal/catalog"
)

// rig is one virtual deployment fronted by a gateway under httptest.
type rig struct {
	d      *micropnp.Deployment
	cl     *micropnp.Client
	cat    *catalog.Catalog
	srv    *Server
	ts     *httptest.Server
	things []*micropnp.Thing
}

// newRig boots nThings Things (TMP36 on channel 0, the first Thing also a
// Relay on channel 1) behind a gateway.
func newRig(t testing.TB, nThings int, ttl time.Duration, opts ...micropnp.Option) *rig {
	t.Helper()
	d, err := micropnp.NewDeployment(opts...)
	if err != nil {
		t.Fatalf("NewDeployment: %v", err)
	}
	t.Cleanup(d.Close)
	cl, err := d.AddClient()
	if err != nil {
		t.Fatalf("AddClient: %v", err)
	}
	cat, err := catalog.New(catalog.Config{TTL: ttl, Now: d.Now})
	if err != nil {
		t.Fatalf("catalog.New: %v", err)
	}
	cl.AddAdvertHook(cat.Observe)
	var things []*micropnp.Thing
	for i := 0; i < nThings; i++ {
		th, err := d.AddThing(fmt.Sprintf("thing-%d", i))
		if err != nil {
			t.Fatalf("AddThing: %v", err)
		}
		if err := th.PlugTMP36(0); err != nil {
			t.Fatalf("PlugTMP36: %v", err)
		}
		if i == 0 {
			if _, err := th.PlugRelay(1); err != nil {
				t.Fatalf("PlugRelay: %v", err)
			}
		}
		things = append(things, th)
	}
	d.Run()
	srv, err := New(Config{Deployment: d, Client: cl, Catalog: cat})
	if err != nil {
		t.Fatalf("gateway.New: %v", err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return &rig{d: d, cl: cl, cat: cat, srv: srv, ts: ts, things: things}
}

func (r *rig) get(t *testing.T, path string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(r.ts.URL + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("GET %s body: %v", path, err)
	}
	return resp, body
}

func (r *rig) getJSON(t *testing.T, path string, into any) *http.Response {
	t.Helper()
	resp, body := r.get(t, path)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d, body %s", path, resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, into); err != nil {
		t.Fatalf("GET %s: bad JSON %q: %v", path, body, err)
	}
	return resp
}

func TestNewValidatesConfig(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("New accepted an empty config")
	}
}

func TestParseDevice(t *testing.T) {
	for in, want := range map[string]micropnp.DeviceID{
		"tmp36": micropnp.TMP36,
		"RELAY": micropnp.Relay,
		"all":   micropnp.AllPeripherals,
		"0x12":  micropnp.DeviceID(0x12),
		"18":    micropnp.DeviceID(18),
	} {
		got, err := ParseDevice(in)
		if err != nil || got != want {
			t.Fatalf("ParseDevice(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	if _, err := ParseDevice("no-such-device"); err == nil {
		t.Fatal("ParseDevice accepted garbage")
	}
}

func TestListAndThingEndpoints(t *testing.T) {
	r := newRig(t, 3, time.Minute)

	var list ListJSON
	r.getJSON(t, "/things", &list)
	if list.Total != 4 || list.Count != 4 { // 3 TMP36 + 1 relay
		t.Fatalf("list = total %d count %d, want 4/4", list.Total, list.Count)
	}

	// Filtered by device.
	r.getJSON(t, "/things?device=relay", &list)
	if list.Total != 1 {
		t.Fatalf("relay filter total = %d, want 1", list.Total)
	}

	// Paged: two pages of 3+1.
	r.getJSON(t, "/things?limit=3", &list)
	if list.Total != 4 || list.Count != 3 {
		t.Fatalf("page 1 = total %d count %d, want 4/3", list.Total, list.Count)
	}
	r.getJSON(t, "/things?limit=3&offset=3", &list)
	if list.Total != 4 || list.Count != 1 {
		t.Fatalf("page 2 = total %d count %d, want 4/1", list.Total, list.Count)
	}

	// Single Thing: the relay host lists two peripherals.
	var entries []EntryJSON
	r.getJSON(t, "/things/"+r.things[0].Addr().String(), &entries)
	if len(entries) != 2 {
		t.Fatalf("thing 0 entries = %d, want 2", len(entries))
	}

	// Unknown Thing → 404; bad address → 400.
	if resp, _ := r.get(t, "/things/fd00::dead"); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown thing status = %d, want 404", resp.StatusCode)
	}
	if resp, _ := r.get(t, "/things/not-an-addr"); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad address status = %d, want 400", resp.StatusCode)
	}
}

func TestReadEndpoint(t *testing.T) {
	r := newRig(t, 2, time.Minute)
	addr := r.things[1].Addr().String()

	var reading ReadingJSON
	resp := r.getJSON(t, "/things/"+addr+"/read?peripheral=tmp36", &reading)
	if len(reading.Values) == 0 {
		t.Fatalf("read returned no values: %+v", reading)
	}
	if reading.Thing != addr {
		t.Fatalf("reading.Thing = %s, want %s", reading.Thing, addr)
	}
	span, err := strconv.ParseInt(resp.Header.Get("X-Upnp-Virtual-Ns"), 10, 64)
	if err != nil || span <= 0 {
		t.Fatalf("X-Upnp-Virtual-Ns = %q, want a positive span", resp.Header.Get("X-Upnp-Virtual-Ns"))
	}

	// Virtual-mode determinism: the same read has the same virtual span.
	resp2 := r.getJSON(t, "/things/"+addr+"/read?peripheral=tmp36", &reading)
	if got := resp2.Header.Get("X-Upnp-Virtual-Ns"); got != strconv.FormatInt(span, 10) {
		t.Fatalf("virtual span not deterministic: %s then %s", strconv.FormatInt(span, 10), got)
	}

	// No such peripheral on a live Thing → 404.
	if resp, _ := r.get(t, "/things/"+addr+"/read?peripheral=bmp180"); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("missing peripheral status = %d, want 404", resp.StatusCode)
	}
	// Missing parameter → 400.
	if resp, _ := r.get(t, "/things/"+addr+"/read"); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("missing parameter status = %d, want 400", resp.StatusCode)
	}
	// Unreachable Thing → the SDK read expires → 504.
	if resp, _ := r.get(t, "/things/fd00::dead/read?peripheral=tmp36"); resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("unreachable thing status = %d, want 504", resp.StatusCode)
	}
}

func TestWriteEndpoint(t *testing.T) {
	r := newRig(t, 1, time.Minute)
	addr := r.things[0].Addr().String()

	put := func(path, body string) *http.Response {
		t.Helper()
		req, err := http.NewRequest(http.MethodPut, r.ts.URL+path, strings.NewReader(body))
		if err != nil {
			t.Fatalf("NewRequest: %v", err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("PUT %s: %v", path, err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp
	}

	if resp := put("/things/"+addr+"/write?peripheral=relay", `{"values":[1]}`); resp.StatusCode != http.StatusNoContent {
		t.Fatalf("relay write status = %d, want 204", resp.StatusCode)
	}
	// Writing to a peripheral the Thing does not serve is rejected → 409.
	if resp := put("/things/"+addr+"/write?peripheral=bmp180", `{"values":[1]}`); resp.StatusCode != http.StatusConflict {
		t.Fatalf("absent-peripheral write status = %d, want 409", resp.StatusCode)
	}
	// Empty values → 400.
	if resp := put("/things/"+addr+"/write?peripheral=relay", `{"values":[]}`); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty write status = %d, want 400", resp.StatusCode)
	}
}

func TestDiscoverRefreshesLeases(t *testing.T) {
	r := newRig(t, 2, 30*time.Second)

	// Let most of the TTL elapse, then discover: the replies must extend
	// every lease past the original deadline.
	r.d.RunFor(25 * time.Second)
	var out struct {
		Count int `json:"count"`
	}
	post, err := http.Post(r.ts.URL+"/discover", "application/json", nil)
	if err != nil {
		t.Fatalf("POST /discover: %v", err)
	}
	data, _ := io.ReadAll(post.Body)
	post.Body.Close()
	if post.StatusCode != http.StatusOK {
		t.Fatalf("POST /discover status = %d, body %s", post.StatusCode, data)
	}
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatalf("discover JSON: %v", err)
	}
	if out.Count != 3 { // 2 TMP36 + the first Thing's relay
		t.Fatalf("discover count = %d, want 3", out.Count)
	}

	// Past the original TTL the sweep drops nothing: leases were refreshed.
	r.d.RunFor(10 * time.Second)
	if n := r.cat.Sweep(); n != 0 {
		t.Fatalf("sweep dropped %d refreshed leases", n)
	}
}

// TestHotplugLifecycleOverHTTP is the PR's acceptance assertion: a
// hot-plugged peripheral appears in GET /things within one refresh round,
// and an unplugged one disappears within one TTL + sweep.
func TestHotplugLifecycleOverHTTP(t *testing.T) {
	const ttl = 30 * time.Second
	r := newRig(t, 2, ttl)

	listTotal := func() int {
		var list ListJSON
		r.getJSON(t, "/things", &list)
		return list.Total
	}
	discover := func() {
		resp, err := http.Post(r.ts.URL+"/discover", "application/json", nil)
		if err != nil {
			t.Fatalf("POST /discover: %v", err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("POST /discover status = %d", resp.StatusCode)
		}
	}

	if got := listTotal(); got != 3 { // 2 TMP36 + relay
		t.Fatalf("initial total = %d, want 3", got)
	}

	// Hot-plug: the plug-in advert alone (no discovery round) must surface
	// the new peripheral in the listing.
	if err := r.things[1].PlugBMP180(1); err != nil {
		t.Fatalf("PlugBMP180: %v", err)
	}
	r.d.Run() // one advert interval: let the plug-in sequence play out
	if got := listTotal(); got != 4 {
		t.Fatalf("total after hot-plug = %d, want 4 (plug-in advert not catalogued)", got)
	}

	// Hot-unplug: after one TTL of refresh rounds that no longer cover the
	// peripheral, plus one sweep, the listing drops it.
	if err := r.things[1].Unplug(1); err != nil {
		t.Fatalf("Unplug: %v", err)
	}
	entry, ok := r.cat.Get(r.things[1].Addr(), micropnp.BMP180)
	if !ok {
		t.Fatal("unplugged entry gone before its lease expired")
	}
	for r.d.Now() <= entry.Expires {
		r.d.RunFor(10 * time.Second)
		discover()
	}
	r.cat.Sweep()
	if got := listTotal(); got != 3 {
		t.Fatalf("total after unplug+TTL+sweep = %d, want 3", got)
	}
	if _, ok := r.cat.Get(r.things[1].Addr(), micropnp.BMP180); ok {
		t.Fatal("unplugged peripheral still catalogued")
	}
}

func TestStreamSSE(t *testing.T) {
	r := newRig(t, 1, time.Minute, micropnp.WithStreamPeriod(5*time.Second))
	addr := r.things[0].Addr().String()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, r.ts.URL+"/things/"+addr+"/stream?peripheral=tmp36", nil)
	if err != nil {
		t.Fatalf("NewRequest: %v", err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("GET stream: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("stream status = %d, body %s", resp.StatusCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("stream content type = %q", ct)
	}

	// Drive the simulator so stream ticks flow while we read events.
	done := make(chan struct{})
	go func() {
		defer close(done)
		for ctx.Err() == nil {
			r.d.RunFor(5 * time.Second)
		}
	}()

	sc := bufio.NewScanner(resp.Body)
	readings := 0
	prev := ""
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "data: ") {
			prev = line
			continue
		}
		var rd ReadingJSON
		data := strings.TrimPrefix(line, "data: ")
		if err := json.Unmarshal([]byte(data), &rd); err != nil {
			t.Fatalf("bad SSE data %q: %v", line, err)
		}
		if len(rd.Values) == 0 || rd.Thing != addr {
			t.Fatalf("bad SSE reading: %+v", rd)
		}
		// The event is "event: reading", the data line in json.Marshal form,
		// and a blank line.
		if want, _ := json.Marshal(rd); data != string(want) {
			t.Fatalf("SSE data %q, want %q", data, want)
		}
		if !sc.Scan() || prev != "event: reading" || sc.Text() != "" {
			t.Fatalf("SSE event framing: %q, %q, %q", prev, line, sc.Text())
		}
		readings++
		if readings >= 3 {
			break
		}
	}
	if readings < 3 {
		t.Fatalf("got %d stream readings, want 3 (scan err %v)", readings, sc.Err())
	}
	cancel()
	<-done
}

func TestHealthzAndMetrics(t *testing.T) {
	r := newRig(t, 1, time.Minute)

	var hz struct {
		OK      bool   `json:"ok"`
		Mode    string `json:"mode"`
		Catalog int    `json:"catalog_size"`
	}
	r.getJSON(t, "/healthz", &hz)
	if !hz.OK || hz.Mode != "virtual" || hz.Catalog != 2 {
		t.Fatalf("healthz = %+v", hz)
	}

	// Generate some traffic so the counters move.
	var reading ReadingJSON
	r.getJSON(t, "/things/"+r.things[0].Addr().String()+"/read?peripheral=tmp36", &reading)
	r.get(t, "/things/not-an-addr") // one error

	resp, body := r.get(t, "/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics status = %d", resp.StatusCode)
	}
	text := string(body)
	for _, want := range []string{
		"upnp_gateway_requests_total",
		"upnp_gateway_errors_total 1",
		"upnp_gateway_catalog_size 2",
		"upnp_gateway_read_count 1",
		"upnp_gateway_read_virtual_ns{q=\"0.99\"}",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("metrics missing %q:\n%s", want, text)
		}
	}
}
