package server

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/graph/gen"
	"repro/internal/xrand"
)

// discardWriter is a ResponseWriter that keeps only the status and the
// body size, so the benchmark times the handler and not a recorder.
type discardWriter struct {
	h    http.Header
	code int
	n    int
}

func (w *discardWriter) Header() http.Header  { return w.h }
func (w *discardWriter) WriteHeader(code int) { w.code = code }
func (w *discardWriter) Write(b []byte) (int, error) {
	w.n += len(b)
	return len(b), nil
}

// BenchmarkServerRunHit times POST /run through Server.ServeHTTP on a warm
// cache key of a 10k-vertex GNP (average degree 8): request decoding,
// admission, the engine hit and the response encoding, without a network.
// changli answers one cluster id per vertex (~20 KB); netdecomp a cluster
// and a colour per vertex (~44 KB).
func BenchmarkServerRunHit(b *testing.B) {
	srv := New(engine.New(engine.Options{}), Options{})
	id, _ := srv.AddGraph(gen.GNP(10000, 8.0/9999, xrand.New(1)))
	for _, bc := range []struct{ name, body string }{
		{"changli", `{"algo":"changli","q":"eps=0.3 scale=0.05 seed=1"}`},
		{"netdecomp", `{"algo":"netdecomp","q":"seed=1"}`},
	} {
		b.Run(bc.name, func(b *testing.B) {
			w := &discardWriter{h: http.Header{}}
			run := func() {
				req := httptest.NewRequest(http.MethodPost, "/v1/graphs/"+id+"/run", strings.NewReader(bc.body))
				req.Header.Set("Content-Type", "application/json")
				w.code, w.n = 0, 0
				srv.ServeHTTP(w, req)
			}
			run() // warm the key
			if w.code != http.StatusOK {
				b.Fatalf("warm-up status %d", w.code)
			}
			b.SetBytes(int64(w.n))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				run()
			}
		})
	}
}
