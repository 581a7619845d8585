package gateway

import (
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
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
