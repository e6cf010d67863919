package httpserver

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	apiv1 "objectrunner/api/v1"
	"objectrunner/internal/sitegen"
)

// serveHTTPFixture is BenchmarkServeHTTP's set-up, built once per
// process: a daemon handler with books/bn registered through POST
// /v1/wrap, and two POST /v1/extract bodies for it — its first 3 pages
// and all of its pages.
var serveHTTPFixture = sync.OnceValues(func() (*serveHTTPSetup, error) {
	cfg := sitegen.DefaultConfig()
	cfg.PagesPerSource = 20
	cfg.Domains = []string{"books"}
	bench, err := sitegen.Generate(cfg)
	if err != nil {
		return nil, err
	}
	dd := bench.Domains[0]
	var src *sitegen.Source
	for _, s := range dd.Sources {
		if s.Spec.Name == "bn" {
			src = s
		}
	}
	dicts := make(map[string][]apiv1.Entry)
	for _, t := range dd.SOD.InstanceOfTypes() {
		class := t.Recognizer.Arg
		for _, e := range bench.KB.Instances(class) {
			dicts[class] = append(dicts[class], apiv1.Entry{Value: e.Value, Confidence: e.Confidence})
		}
	}
	const key = "books/bn"
	wrap, err := json.Marshal(apiv1.WrapRequest{Source: key, SOD: dd.Spec.SODText, Pages: src.HTML, Dictionaries: dicts})
	if err != nil {
		return nil, err
	}
	h := New(Config{}).Handler()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/wrap", bytes.NewReader(wrap)))
	if rec.Code != http.StatusOK {
		return nil, fmt.Errorf("wrap %s: status %d: %s", key, rec.Code, rec.Body)
	}
	setup := &serveHTTPSetup{handler: h}
	for _, pages := range [][]string{src.HTML[:3], src.HTML} {
		body, err := json.Marshal(apiv1.ExtractRequest{Source: key, Pages: pages})
		if err != nil {
			return nil, err
		}
		setup.bodies = append(setup.bodies, body)
	}
	return setup, nil
})

type serveHTTPSetup struct {
	handler http.Handler
	bodies  [][]byte // window, batch
}

// BenchmarkServeHTTP is rung 4 of the serve ladder: one POST /v1/extract
// through the daemon's whole handler, in process (httptest), on a
// registered source — body read and decode, middleware and telemetry,
// store lookup, streaming extraction and the response envelope. window
// sends 3 pages, batch the whole source (20 pages plus its 6
// off-template ones, a 58 KB body). The rung below, Service.ServeExtract
// alone, is the root package's BenchmarkServeCache/cache_hit (on the
// running example); make bench records both in BENCH_serve.json.
func BenchmarkServeHTTP(b *testing.B) {
	setup, err := serveHTTPFixture()
	if err != nil {
		b.Fatal(err)
	}
	for i, name := range []string{"window", "batch"} {
		body := setup.bodies[i]
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(body)))
			b.ResetTimer()
			for n := 0; n < b.N; n++ {
				rec := httptest.NewRecorder()
				setup.handler.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/extract", bytes.NewReader(body)))
				if rec.Code != http.StatusOK {
					b.Fatalf("status %d: %s", rec.Code, rec.Body)
				}
			}
		})
	}
}
