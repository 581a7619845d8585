package loadgen_test

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"micropnp"
	"micropnp/internal/catalog"
	"micropnp/internal/gateway"
	"micropnp/internal/loadgen"
)

// newGateway boots a quiet virtual-mode gateway (no refresher, no sweeper —
// nothing drives the clock but the load itself) over nThings Things, the
// first carrying a relay bank.
func newGateway(t *testing.T, nThings int) *httptest.Server {
	t.Helper()
	d, err := micropnp.NewDeployment(micropnp.WithSeed(1))
	if err != nil {
		t.Fatalf("NewDeployment: %v", err)
	}
	t.Cleanup(d.Close)
	cl, err := d.AddClient()
	if err != nil {
		t.Fatalf("AddClient: %v", err)
	}
	cat, err := catalog.New(catalog.Config{TTL: time.Hour, Now: d.Now})
	if err != nil {
		t.Fatalf("catalog.New: %v", err)
	}
	cl.AddAdvertHook(cat.Observe)
	for i := 0; i < nThings; i++ {
		th, err := d.AddThing(fmt.Sprintf("t%d", i))
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
	}
	d.Run()
	srv, err := gateway.New(gateway.Config{Deployment: d, Client: cl, Catalog: cat})
	if err != nil {
		t.Fatalf("gateway.New: %v", err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return ts
}

func TestHTTPModeSmoke(t *testing.T) {
	ts := newGateway(t, 6)
	cfg, err := loadgen.Preset("http-smoke")
	if err != nil {
		t.Fatalf("Preset: %v", err)
	}
	cfg.Target = ts.URL
	cfg.HTTPOps = 60
	cfg.Seed = 7

	res, err := loadgen.Run(cfg)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Mode != "http-virtual" {
		t.Fatalf("mode = %q, want http-virtual", res.Mode)
	}
	if res.Issued != 60 || res.Completed != 60 || res.Errors != 0 || res.Timeouts != 0 {
		t.Fatalf("counts = issued %d completed %d errors %d timeouts %d, want 60/60/0/0",
			res.Issued, res.Completed, res.Errors, res.Timeouts)
	}
	if res.Things != 6 {
		t.Fatalf("things = %d, want 6", res.Things)
	}
	for _, op := range []string{"read", "write", "discover"} {
		o := res.Ops[op]
		if o == nil || o.Count == 0 {
			t.Fatalf("op %s missing or empty: %+v", op, res.Ops)
		}
		if o.P99Ns <= 0 {
			t.Fatalf("op %s p99 = %d, want positive virtual span", op, o.P99Ns)
		}
	}
	if res.MeasureNs <= 0 {
		t.Fatalf("measure span = %d, want positive (the load pumps the clock)", res.MeasureNs)
	}
	if res.ScheduleHash == "" {
		t.Fatal("empty schedule hash")
	}
}

// TestHTTPModeDeterministic asserts the CI contract: two runs with the same
// seed against identically-built quiet gateways produce the same schedule
// hash and identical per-op p99s.
func TestHTTPModeDeterministic(t *testing.T) {
	run := func() *loadgen.Result {
		ts := newGateway(t, 6)
		cfg, err := loadgen.Preset("http-smoke")
		if err != nil {
			t.Fatalf("Preset: %v", err)
		}
		cfg.Target = ts.URL
		cfg.HTTPOps = 40
		cfg.Seed = 3
		res, err := loadgen.Run(cfg)
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		return res
	}
	a, b := run(), run()
	if a.ScheduleHash != b.ScheduleHash {
		t.Fatalf("schedule hash differs: %s vs %s", a.ScheduleHash, b.ScheduleHash)
	}
	for name, oa := range a.Ops {
		ob := b.Ops[name]
		if ob == nil {
			t.Fatalf("op %s missing from second run", name)
		}
		if oa.Count != ob.Count || oa.P50Ns != ob.P50Ns || oa.P99Ns != ob.P99Ns || oa.MaxNs != ob.MaxNs {
			t.Fatalf("op %s not deterministic: %+v vs %+v", name, oa, ob)
		}
	}
	if a.MeasureNs != b.MeasureNs {
		t.Fatalf("virtual span differs: %d vs %d", a.MeasureNs, b.MeasureNs)
	}
}

// TestHTTPModeLanesFailWithDifferentErrors: two lanes abort on errors of
// different concrete types — a listed Thing that is no valid URL path
// (*url.Error from building the request) and a gateway that drops the
// connection (the runner's wrapped transport error). Run must return one of
// them, not panic. Seeds 2 and 3 send lane 0 and lane 1 to different
// entries first, in both orders.
func TestHTTPModeLanesFailWithDifferentErrors(t *testing.T) {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		fmt.Fprint(w, `{"ok":true,"mode":"virtual","now_ns":0}`)
	})
	mux.HandleFunc("/things", func(w http.ResponseWriter, _ *http.Request) {
		fmt.Fprint(w, `{"total":2,"count":2,"things":[{"thing":"%zz","device":"0xad1cbe01"},{"thing":"t1","device":"0xad1cbe01"}]}`)
	})
	mux.HandleFunc("/things/t1/read", func(w http.ResponseWriter, _ *http.Request) {
		conn, _, err := http.NewResponseController(w).Hijack()
		if err == nil {
			conn.Close()
		}
	})
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	for _, seed := range []int64{2, 3} {
		cfg := loadgen.Config{Target: ts.URL, Scenario: "x", Workers: 2, HTTPOps: 4, Seed: seed}
		cfg.Mix, _ = loadgen.ParseMix("read=1")
		if _, err := loadgen.Run(cfg); err == nil {
			t.Fatalf("seed %d: Run succeeded against a gateway whose every read fails", seed)
		}
	}
}

func TestHTTPModeRejectsStreamOnlyMix(t *testing.T) {
	cfg := loadgen.Config{Target: "http://127.0.0.1:1", Scenario: "x"}
	cfg.Mix, _ = loadgen.ParseMix("subscribe=10")
	if _, err := loadgen.Run(cfg); err == nil {
		t.Fatal("Run accepted an HTTP-incapable mix")
	}
}

// TestWriteJSONCreatesParentDir covers the -out fix: a result lands in a
// directory that does not exist yet, atomically (no temp file left behind).
func TestWriteJSONCreatesParentDir(t *testing.T) {
	res := &loadgen.Result{Scenario: "x", Mode: "virtual", Ops: map[string]*loadgen.OpResult{}}
	path := filepath.Join(t.TempDir(), "deep", "nested", "result.json")
	if err := res.WriteJSON(path); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read back: %v", err)
	}
	var back loadgen.Result
	if err := json.Unmarshal(data, &back); err != nil || back.Scenario != "x" {
		t.Fatalf("round trip: %v, %+v", err, back)
	}
	entries, err := os.ReadDir(filepath.Dir(path))
	if err != nil {
		t.Fatalf("ReadDir: %v", err)
	}
	if len(entries) != 1 {
		t.Fatalf("leftover files next to result: %v", entries)
	}
}
