package gateway

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/netip"
	"testing"
	"time"

	"micropnp"
)

// gatewayReadBatch is the number of requests one benchmark op covers, so a
// -benchtime 1x run (the CI regression gate) measures a stable span.
const gatewayReadBatch = 100

// BenchmarkGatewayRead measures the gateway's read handler in process: an
// httptest request for one Thing's TMP36 runs through routing, address and
// peripheral parsing, the virtual-mode SDK read and the JSON reply, written
// to an httptest recorder instead of a socket.
func BenchmarkGatewayRead(b *testing.B) {
	r := newRig(b, 4, time.Hour)
	req := httptest.NewRequest(http.MethodGet, "/things/"+r.things[1].Addr().String()+"/read?peripheral=tmp36", nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < gatewayReadBatch; j++ {
			w := httptest.NewRecorder()
			r.srv.ServeHTTP(w, req)
			if w.Code != http.StatusOK {
				b.Fatalf("read status %d: %s", w.Code, w.Body)
			}
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*gatewayReadBatch), "ns/read")
}

// gatewayListBatch is the number of pages one BenchmarkGatewayList op
// fetches; listCatalogSize is the catalog it pages through.
const (
	gatewayListBatch = 20
	listCatalogSize  = 1000
)

// BenchmarkGatewayList measures the listing handler in process: 50-entry
// pages of a 1,000-entry catalog run through routing, query parsing, the
// catalog page copy and the JSON reply, written to an httptest recorder.
func BenchmarkGatewayList(b *testing.B) {
	r := newRig(b, 1, time.Hour)
	prefix := netip.MustParseAddr("fd00::").As16()
	for i := 0; i < listCatalogSize; i++ {
		a := prefix
		a[14], a[15] = byte(i>>8), byte(i)
		r.cat.Observe(micropnp.Advert{Thing: netip.AddrFrom16(a), Device: micropnp.TMP36,
			Name: fmt.Sprintf("thing-%d", i), Units: "0.1°C", At: r.d.Now()})
	}
	reqs := make([]*http.Request, gatewayListBatch)
	for j := range reqs {
		reqs[j] = httptest.NewRequest(http.MethodGet, fmt.Sprintf("/things?offset=%d&limit=50", j*50), nil)
	}
	page := func(req *http.Request) {
		w := httptest.NewRecorder()
		r.srv.ServeHTTP(w, req)
		if w.Code != http.StatusOK {
			b.Fatalf("list status %d: %s", w.Code, w.Body)
		}
	}
	page(reqs[0]) // the catalog's one lazy sort after registration
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, req := range reqs {
			page(req)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*gatewayListBatch), "ns/page")
}
