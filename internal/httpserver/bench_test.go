package httpserver

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"runtime/debug"
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

// wrapHTTPFixture is BenchmarkWrapHTTP's set-up, built once per process:
// one POST /v1/wrap body per source of the default corpus at 20 pages,
// each registering the source under its domain/name key with the SOD and
// the knowledge base's instances of every instanceOf class as static
// dictionaries — the registrations the end-to-end benchmark's wrap loop
// sends.
var wrapHTTPFixture = sync.OnceValues(func() ([]wrapBody, error) {
	cfg := sitegen.DefaultConfig()
	cfg.PagesPerSource = 20
	bench, err := sitegen.Generate(cfg)
	if err != nil {
		return nil, err
	}
	var out []wrapBody
	for _, dd := range bench.Domains {
		dicts := make(map[string][]apiv1.Entry)
		for _, t := range dd.SOD.InstanceOfTypes() {
			class := t.Recognizer.Arg
			for _, e := range bench.KB.Instances(class) {
				dicts[class] = append(dicts[class], apiv1.Entry{Value: e.Value, Confidence: e.Confidence})
			}
		}
		for _, src := range dd.Sources {
			key := dd.Spec.Name + "/" + src.Spec.Name
			body, err := json.Marshal(apiv1.WrapRequest{Source: key, SOD: dd.Spec.SODText, Pages: src.HTML, Dictionaries: dicts})
			if err != nil {
				return nil, err
			}
			out = append(out, wrapBody{key: key, body: body})
		}
	}
	return out, nil
})

type wrapBody struct {
	key  string
	body []byte
}

// BenchmarkWrapHTTP is the cold-wrap rung of the daemon: one op
// registers and wraps every source of the default corpus (49 sources at
// 20 pages) through the whole handler, POST /v1/wrap then DELETE
// /v1/sources/{key}, so every wrap is cold — what a daemon pays per
// source in CPU and, through B/op, in garbage its neighbours' requests
// then collect. A discarded source answers 422, which is its answer, not
// a failure.
//
// The garbage collector is off while the ops run (one op allocates about
// 100 MB), after two collections that empty the standard library's pools
// (regexp machines, JSON and fmt state): B/op stands for the collector's
// work here. With collections mid-op those pools emptied and refilled at
// varying points, and allocs/op moved by a few dozen from run to run;
// this way both repeat exactly, and ns/op is the wraps' own CPU.
func BenchmarkWrapHTTP(b *testing.B) {
	bodies, err := wrapHTTPFixture()
	if err != nil {
		b.Fatal(err)
	}
	h := New(Config{}).Handler()
	b.ReportAllocs()
	runtime.GC()
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		for _, wb := range bodies {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/wrap", bytes.NewReader(wb.body)))
			if rec.Code != http.StatusOK && rec.Code != http.StatusUnprocessableEntity {
				b.Fatalf("wrap %s: status %d: %s", wb.key, rec.Code, rec.Body)
			}
			rec = httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodDelete, "/v1/sources/"+escapeKeyPath(wb.key), nil))
			if rec.Code != http.StatusNoContent {
				b.Fatalf("delete %s: status %d: %s", wb.key, rec.Code, rec.Body)
			}
		}
	}
}
