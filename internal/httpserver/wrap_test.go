package httpserver

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"

	apiv1 "objectrunner/api/v1"
	"objectrunner/internal/obs"
)

// spanWorkers returns the "workers" attribute of every started span with
// the given name, in emission order.
func spanWorkers(events []obs.Event, name string) []int {
	var out []int
	for _, e := range events {
		if e.Kind != "span_start" || e.Name != name {
			continue
		}
		for _, a := range e.Attrs {
			if a.Key == "workers" {
				out = append(out, a.Value.(int))
			}
		}
	}
	return out
}

// A daemon wrap infers on its request goroutine whatever -workers says,
// while the same source's extracts still fan out over -workers: the wrap's
// pipeline spans record one worker (and its per-worker spans only worker
// 0), the extract's batch span the configured four.
func TestDaemonWrapInfersOnOneWorker(t *testing.T) {
	mem := obs.NewMemory()
	srv := New(Config{Workers: 4, Obs: obs.New(mem)})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	wrapConcerts(t, ts.URL, "concerts")
	wrapEvents := mem.Events()
	for _, name := range []string{"pipeline.clean", "pipeline.tokenize", "pipeline.eqbase"} {
		got := spanWorkers(wrapEvents, name)
		if len(got) == 0 {
			t.Fatalf("wrap emitted no %s span", name)
		}
		for _, w := range got {
			if w != 1 {
				t.Errorf("wrap %s span: workers=%d, want 1", name, w)
			}
		}
	}
	for _, e := range wrapEvents {
		if e.Kind == "span_start" && e.Name == "pipeline.worker" && e.Attrs[0].Value.(int) != 0 {
			t.Errorf("wrap ran a second worker: %+v", e)
		}
	}

	resp := postJSON(t, ts.URL+"/v1/extract", apiv1.ExtractRequest{Source: "concerts", Pages: concertPages()})
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("extract status = %d", resp.StatusCode)
	}
	got := spanWorkers(mem.Events()[len(wrapEvents):], "pipeline.extract_stream_batch")
	if len(got) != 1 || got[0] != 4 {
		t.Errorf("extract batch span workers = %v, want [4]", got)
	}
}

// The Go runtime's garbage-collection totals are on /metrics in both
// forms: across two scrapes with a wrap and a forced collection between
// them, none falls and the cycle count rises.
func TestMetricsRuntimeGCTotals(t *testing.T) {
	srv := New(Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	scrape := func() (jsonForm, promForm map[string]float64) {
		t.Helper()
		resp, err := http.Get(ts.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		m := decodeBody[metricsResponse](t, resp)
		jsonForm = make(map[string]float64)
		for _, rt := range runtimeTotals {
			v, ok := m.Gauges[rt.name]
			if !ok {
				t.Fatalf("JSON metrics lack %s", rt.name)
			}
			jsonForm[rt.name] = v
		}
		req, _ := http.NewRequest(http.MethodGet, ts.URL+"/metrics", nil)
		req.Header.Set("Accept", "text/plain")
		resp, err = http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		promForm = make(map[string]float64)
		for _, rt := range runtimeTotals {
			if !strings.Contains(string(body), "# TYPE "+rt.name+" counter\n") {
				t.Errorf("Prometheus form lacks a counter %s", rt.name)
			}
			for _, line := range strings.Split(string(body), "\n") {
				if v, ok := strings.CutPrefix(line, rt.name+" "); ok {
					f, err := strconv.ParseFloat(v, 64)
					if err != nil {
						t.Fatalf("%s: %v", line, err)
					}
					promForm[rt.name] = f
				}
			}
			if _, ok := promForm[rt.name]; !ok {
				t.Fatalf("Prometheus form has no %s sample", rt.name)
			}
		}
		return jsonForm, promForm
	}

	j1, p1 := scrape()
	wrapConcerts(t, ts.URL, "concerts")
	runtime.GC()
	j2, p2 := scrape()
	for _, rt := range runtimeTotals {
		if j2[rt.name] < j1[rt.name] || p2[rt.name] < p1[rt.name] {
			t.Errorf("%s fell: JSON %v → %v, Prometheus %v → %v", rt.name, j1[rt.name], j2[rt.name], p1[rt.name], p2[rt.name])
		}
	}
	if j2["go_gc_cycles_total"] <= j1["go_gc_cycles_total"] || p2["go_gc_cycles_total"] <= p1["go_gc_cycles_total"] {
		t.Errorf("go_gc_cycles_total did not rise across runtime.GC(): JSON %v → %v, Prometheus %v → %v",
			j1["go_gc_cycles_total"], j2["go_gc_cycles_total"], p1["go_gc_cycles_total"], p2["go_gc_cycles_total"])
	}
}

// register builds the extractor outside the server mutex and re-checks
// under it: concurrent same-spec registrations of one source all end on
// one registration, and concurrent different-spec registrations each get
// a registration of their own spec, the last one installed winning. Run
// under -race by make check.
func TestRegisterConcurrent(t *testing.T) {
	srv := New(Config{})
	req := func(source string, variant int) *apiv1.WrapRequest {
		dicts := concertDicts()
		dicts["Artist"] = append(dicts["Artist"], apiv1.Entry{Value: fmt.Sprintf("Band %d", variant), Confidence: 0.5})
		return &apiv1.WrapRequest{Source: source, SOD: concertSOD, Pages: concertPages(), Dictionaries: dicts}
	}
	const n = 8
	var wg sync.WaitGroup
	same := make([]*source, n)
	diff := make([]*source, n)
	for i := 0; i < n; i++ {
		wg.Add(2)
		go func() {
			defer wg.Done()
			src, err := srv.register(req("same", 0))
			if err != nil {
				t.Error(err)
				return
			}
			same[i] = src
		}()
		go func() {
			defer wg.Done()
			r := req("diff", i%2)
			src, err := srv.register(r)
			if err != nil {
				t.Error(err)
				return
			}
			if src.spec != specOf(r) {
				t.Errorf("registration %d got a source of another spec", i)
			}
			diff[i] = src
		}()
	}
	wg.Wait()
	for i := 1; i < n; i++ {
		if same[i] != same[0] {
			t.Fatalf("same-spec registrations ended on %d distinct sources", countDistinct(same))
		}
	}
	if got := srv.lookup("same"); got != same[0] {
		t.Error("the shared same-spec registration is not the registered one")
	}
	final := srv.lookup("diff")
	if final == nil || (final.spec != specOf(req("diff", 0)) && final.spec != specOf(req("diff", 1))) {
		t.Fatalf("diff registered under an unknown spec")
	}

	// A changed spec replaces the registration, and the next wrap under it
	// answers from a fresh inference.
	h := srv.Handler()
	for _, variant := range []int{0, 1} {
		body, _ := json.Marshal(req("diff", variant))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/wrap", bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			t.Fatalf("wrap variant %d: status %d: %s", variant, rec.Code, rec.Body)
		}
		if got := srv.lookup("diff").spec; got != specOf(req("diff", variant)) {
			t.Errorf("after wrapping variant %d the registration has another spec", variant)
		}
	}
}

func countDistinct(srcs []*source) int {
	seen := make(map[*source]bool)
	for _, s := range srcs {
		seen[s] = true
	}
	return len(seen)
}

// decodeWrapRequest decodes the body's first object with json.Unmarshal
// and must agree with json.Decoder on every body: the same request, the
// same error text, and bytes after the object ignored.
func TestDecodeWrapRequestMatchesDecoder(t *testing.T) {
	full, err := json.Marshal(apiv1.WrapRequest{Source: "concerts", SOD: concertSOD, Pages: concertPages(), Dictionaries: concertDicts()})
	if err != nil {
		t.Fatal(err)
	}
	for _, body := range []string{
		string(full),
		string(full) + " trailing {",
		" \n" + string(full) + "}]",
		`{"source":"a}\"{[","pages":["<p>{</p>"]}`,
		`{"source":"a","pages":["x"]`,
		`{"source":"a","pages":[1]}`,
		`{"source":"a\q"}`,
		`{"source":"a"}}`,
		`[]`, `null`, `"x"`, ``, `{`, `}`,
	} {
		var got, want apiv1.WrapRequest
		gotErr := decodeWrapRequest([]byte(body), &got)
		wantErr := json.NewDecoder(strings.NewReader(body)).Decode(&want)
		if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
			t.Errorf("%.40q: error %v, json.Decoder %v", body, gotErr, wantErr)
		}
		if gotErr == nil {
			g, _ := json.Marshal(got)
			w, _ := json.Marshal(want)
			if !bytes.Equal(g, w) {
				t.Errorf("%.40q: decoded %s, json.Decoder %s", body, g, w)
			}
		}
	}
}
