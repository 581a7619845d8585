package gateway

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/netip"
	"net/url"
	"strconv"
	"strings"
	"testing"
	"time"

	"micropnp"
)

// FuzzQueryValue holds queryValue to url.ParseQuery(raw).Get(key) for every
// raw query and key.
func FuzzQueryValue(f *testing.F) {
	for _, seed := range []struct{ raw, key string }{
		{"peripheral=tmp36", "peripheral"},
		{"b=1;c=2&b=3", "b"},                              // ';' inside a pair
		{"peripheral=%zz&peripheral=relay", "peripheral"}, // bad escape, then a good value
		{"units=0.1+C&units=x", "units"},                  // '+' is a space
		{"limit=5&limit=7", "limit"},                      // repeated key
		{"device&device=relay", "device"},                 // key with no '='
		{"offset=&offset=3", "offset"},                    // empty value
		{"peri%70heral=bmp180", "peripheral"},             // escaped key
		{"%zz=1&a+b=2", "a b"},
		{"&&=&a==b", "a"},
	} {
		f.Add(seed.raw, seed.key)
	}
	f.Fuzz(func(t *testing.T, raw, key string) {
		// Newer Go releases limit the pairs ParseQuery accepts (10,000 by
		// default); the lookup builds nothing per pair and has no limit, so
		// queries anywhere near that size are not compared.
		if strings.Count(raw, "&") >= 1000 {
			t.Skip()
		}
		want, _ := url.ParseQuery(raw)
		if got := queryValue(raw, key); got != want.Get(key) {
			t.Fatalf("queryValue(%q, %q) = %q, url.ParseQuery gives %q", raw, key, got, want.Get(key))
		}
	})
}

// TestEncodeReplyMatchesMarshal pins the encoder settings: compact, HTML
// escaped exactly as json.Marshal escapes, one trailing newline.
func TestEncodeReplyMatchesMarshal(t *testing.T) {
	v := ReadingJSON{Thing: "fd00::1", Device: "0xad1cbe01", Values: []int32{-1, 0, 1 << 30}, Units: `<0.1°C & "x">`, AtNs: 7}
	want, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ { // the pooled reply is reused
		rp, err := encodeReply("data: ", v)
		if err != nil {
			t.Fatal(err)
		}
		if got := rp.String(); got != "data: "+string(want)+"\n" {
			t.Fatalf("encodeReply = %q, want %q", got, "data: "+string(want)+"\n")
		}
		putReply(rp)
	}
}

// TestReplyWireShape pins every JSON reply's bytes: the body is
// json.Marshal of its shape plus a newline, typed application/json, with a
// Content-Length equal to the body length (no chunked encoding).
func TestReplyWireShape(t *testing.T) {
	r := newRig(t, 2, time.Minute)
	addr := r.things[0].Addr().String()
	// Enough entries that the unpaged listing outgrows net/http's 2 KB
	// buffer, past which a body without Content-Length goes out chunked.
	prefix := netip.MustParseAddr("fd00::").As16()
	for i := 0; i < 40; i++ {
		a := prefix
		a[15] = byte(i + 1)
		r.cat.Observe(micropnp.Advert{Thing: netip.AddrFrom16(a), Device: micropnp.Relay, Name: "bulk", Units: "bitmask", At: r.d.Now()})
	}
	for _, tc := range []struct {
		method, path string
		status       int
		shape        func() any
	}{
		{http.MethodGet, "/things/" + addr + "/read?peripheral=tmp36", http.StatusOK, func() any { return new(ReadingJSON) }},
		{http.MethodGet, "/things", http.StatusOK, func() any { return new(ListJSON) }},
		{http.MethodGet, "/things?device=relay&limit=2", http.StatusOK, func() any { return new(ListJSON) }},
		{http.MethodGet, "/things/" + addr, http.StatusOK, func() any { return new([]EntryJSON) }},
		{http.MethodPost, "/discover", http.StatusOK, func() any {
			return new(struct {
				Count   int          `json:"count"`
				Adverts []AdvertJSON `json:"adverts"`
			})
		}},
		{http.MethodGet, "/healthz", http.StatusOK, func() any {
			return new(struct {
				OK          bool    `json:"ok"`
				Mode        string  `json:"mode"`
				NowNs       int64   `json:"now_ns"`
				Deployments int     `json:"deployments,omitempty"`
				DepNowNs    []int64 `json:"deployment_now_ns,omitempty"`
				Catalog     int     `json:"catalog_size"`
			})
		}},
		{http.MethodGet, "/things/not-an-addr", http.StatusBadRequest, func() any { return new(errorJSON) }},
	} {
		req, err := http.NewRequest(tc.method, r.ts.URL+tc.path, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("%s %s: %v", tc.method, tc.path, err)
		}
		var body bytes.Buffer
		_, err = body.ReadFrom(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("%s %s body: %v", tc.method, tc.path, err)
		}
		if resp.StatusCode != tc.status {
			t.Fatalf("%s %s: status %d, want %d: %s", tc.method, tc.path, resp.StatusCode, tc.status, body.Bytes())
		}
		if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
			t.Fatalf("%s %s: Content-Type %q", tc.method, tc.path, ct)
		}
		if cl := resp.Header.Get("Content-Length"); cl != strconv.Itoa(body.Len()) || len(resp.TransferEncoding) != 0 {
			t.Fatalf("%s %s: Content-Length %q, transfer encoding %v, body %d bytes", tc.method, tc.path, cl, resp.TransferEncoding, body.Len())
		}
		v := tc.shape()
		if err := json.Unmarshal(body.Bytes(), v); err != nil {
			t.Fatalf("%s %s: %v", tc.method, tc.path, err)
		}
		want, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		if got := body.String(); got != string(want)+"\n" {
			t.Fatalf("%s %s: body %q, want %q", tc.method, tc.path, got, string(want)+"\n")
		}
	}
}
