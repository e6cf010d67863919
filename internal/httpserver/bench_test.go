package httpserver

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"runtime/debug"
	"sync"
	"testing"

	"objectrunner"
	apiv1 "objectrunner/api/v1"
	"objectrunner/internal/eqclass"
	"objectrunner/internal/sitegen"
	"objectrunner/internal/symtab"
	"objectrunner/internal/template"
	"objectrunner/internal/wrapper"
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
	srv := New(Config{})
	h := srv.Handler()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/wrap", bytes.NewReader(wrap)))
	if rec.Code != http.StatusOK {
		return nil, fmt.Errorf("wrap %s: status %d: %s", key, rec.Code, rec.Body)
	}
	setup := &serveHTTPSetup{handler: h, srv: srv, key: key, sod: dd.Spec.SODText}
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
	srv     *Server
	key     string // the registered source
	sod     string // its SOD text
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

// BenchmarkServeRungs splits BenchmarkServeHTTP/batch into the serve
// ladder's rungs, each on the same 26 books/bn pages per op:
//
//   - decode: decodeExtractRequest on the batch body;
//   - tokenize: eqclass.TokenizeLookupStream on every page, against the
//     wrapper's frozen symbol table and block key;
//   - extract: tokenize, then template.ExtractAllStream and the SOD's
//     FilterByRules — one worker's whole per-page work;
//   - service: Service.ServeExtract, which adds the store lookup and
//     the fan-out over the extract workers.
//
// The gap between adjacent rungs is one layer's cost; the gap between
// service and BenchmarkServeHTTP/batch is the handler's (middleware,
// telemetry, the response envelope). The bottom rungs run on a copy of
// the served wrapper, saved and decoded, with its descriptors bound
// into a table of their own in the served wrapper's order.
func BenchmarkServeRungs(b *testing.B) {
	setup, err := serveHTTPFixture()
	if err != nil {
		b.Fatal(err)
	}
	body := setup.bodies[1]
	var req apiv1.ExtractRequest
	if err := decodeExtractRequest(body, &req); err != nil {
		b.Fatal(err)
	}
	pages := req.Pages
	ctx := context.Background()
	svc := setup.srv.lookup(setup.key).svc
	outer, err := svc.Wrapper(ctx, setup.key, pages)
	if err != nil {
		b.Fatal(err)
	}
	s, err := objectrunner.ParseSOD(setup.sod)
	if err != nil {
		b.Fatal(err)
	}
	var saved bytes.Buffer
	if err := outer.Save(&saved); err != nil {
		b.Fatal(err)
	}
	w, err := wrapper.Decode(&saved, s)
	if err != nil {
		b.Fatal(err)
	}
	tab := symtab.New()
	template.InternDescs(w.Template, tab)
	tab.Freeze()
	key := &eqclass.StreamKey{Tag: w.BlockKey.Tag, Path: w.BlockKey.Path, AttrSig: w.BlockKey.AttrSig}
	var arena eqclass.StreamArena
	scratch := template.NewScratch()
	for i, p := range pages {
		if _, ok := eqclass.TokenizeLookupStream(&arena, tab, p, key, 0); !ok {
			b.Fatalf("page %d falls back to the tree path", i)
		}
	}
	rungs := []struct {
		name string
		op   func()
	}{
		{"decode", func() {
			var req apiv1.ExtractRequest
			if err := decodeExtractRequest(body, &req); err != nil {
				b.Fatal(err)
			}
		}},
		{"tokenize", func() {
			for _, p := range pages {
				eqclass.TokenizeLookupStream(&arena, tab, p, key, 0)
			}
		}},
		{"extract", func() {
			for _, p := range pages {
				toks, _ := eqclass.TokenizeLookupStream(&arena, tab, p, key, 0)
				objs := template.ExtractAllStream(w.SOD, w.Matches, toks, scratch)
				w.SOD.FilterByRules(objs)
			}
		}},
		{"service", func() {
			if _, err := svc.ServeExtract(ctx, setup.key, pages); err != nil {
				b.Fatal(err)
			}
		}},
	}
	for _, r := range rungs {
		b.Run(r.name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(body)))
			b.ResetTimer()
			for n := 0; n < b.N; n++ {
				r.op()
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
