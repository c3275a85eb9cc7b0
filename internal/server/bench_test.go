package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/bio"
	"repro/internal/index"
)

// benchServer builds the standard benchmark service: the 1000-sequence
// homolog-planted database behind an in-process seed index.
func benchServer(b *testing.B, cfg Config) *Server {
	b.Helper()
	spec := bio.DefaultDBSpec(1000)
	spec.Related = 20
	spec.RelatedTo = bio.GlutathioneQuery()
	db := bio.SyntheticDB(spec)
	ix := index.Build(db, index.Options{})
	s, err := New(db, ix, cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(s.Close)
	return s
}

// BenchmarkServerThroughput measures end-to-end request service (JSON
// decode -> validate -> pipeline -> JSON encode) through the handler.
//
//	uncached: cache disabled, every request runs the indexed scan
//	cached:   cache enabled, steady-state LRU hits
//
// The cached/uncached ratio is the service's cache leverage; the
// benchmark's ladder records the same pair as server.pipeline_indexed_us
// and server.pipeline_hit_us, and CI gates on their ratio.
func BenchmarkServerThroughput(b *testing.B) {
	body, err := json.Marshal(SearchRequest{Query: bio.GlutathioneQuery().String(), K: 10})
	if err != nil {
		b.Fatal(err)
	}
	run := func(b *testing.B, s *Server) {
		handler := s.Handler()
		// Warm: size scratch buffers and (when enabled) the cache.
		rec := httptest.NewRecorder()
		handler.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/search", bytes.NewReader(body)))
		if rec.Code != 200 {
			b.Fatalf("status %d: %s", rec.Code, rec.Body.String())
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			rec := httptest.NewRecorder()
			handler.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/search", bytes.NewReader(body)))
			if rec.Code != 200 {
				b.Fatalf("status %d", rec.Code)
			}
		}
	}
	b.Run("uncached", func(b *testing.B) {
		run(b, benchServer(b, Config{CacheEntries: -1}))
	})
	b.Run("cached", func(b *testing.B) {
		run(b, benchServer(b, Config{}))
	})
}
