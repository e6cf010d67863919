package httpserver

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"objectrunner"
	apiv1 "objectrunner/api/v1"
	"objectrunner/internal/cluster"
	"objectrunner/internal/obs"
)

// The paper's running example (Fig. 3) as wire-level fixtures.
const concertSOD = `tuple {
	artist: instanceOf(Artist)
	date: date
	location: tuple { theater: instanceOf(Theater), address: address ? }
}`

func concertPages() []string {
	page := func(body string) string { return "<html><body>" + body + "</body></html>" }
	return []string{
		page(`<li><div>Metallica</div><div>Monday May 11, 2010 8:00pm</div><div><span><a>Madison Square Garden</a></span><span>237 West 42nd Street</span><span>New York City</span><span>New York</span><span>10036</span></div></li>`),
		page(`<li><div>Madonna</div><div>Saturday May 29, 2010 7:00pm</div><div><span><a>The Town Hall</a></span><span>131 W 55th Street</span><span>New York City</span><span>New York</span><span>10019</span></div></li><li><div>Muse</div><div>Friday June 19, 2010 7:00pm</div><div><span><a>B.B King Blues and Grill</a></span><span>4 Penn Plaza</span><span>New York City</span><span>New York</span><span>10001</span></div></li>`),
		page(`<li><div>Coldplay</div><div>Saturday August 8, 2010 8:00pm</div><div><span><a>Bowery Ballroom</a></span><span>6 Delancey Street</span><span>New York City</span><span>New York</span><span>10002</span></div></li>`),
	}
}

func concertDicts() map[string][]apiv1.Entry {
	return map[string][]apiv1.Entry{
		"Artist": {
			{Value: "Metallica", Confidence: 0.9}, {Value: "Madonna", Confidence: 0.95},
			{Value: "Muse", Confidence: 0.85}, {Value: "Coldplay", Confidence: 0.9},
		},
		"Theater": {
			{Value: "Madison Square Garden", Confidence: 0.9}, {Value: "The Town Hall", Confidence: 0.8},
			{Value: "B.B King Blues and Grill", Confidence: 0.75}, {Value: "Bowery Ballroom", Confidence: 0.85},
		},
	}
}

// concertService builds the library-level twin of a wrap registration,
// for output-identity comparisons.
func concertService(t testing.TB) *objectrunner.Service {
	t.Helper()
	var opts []objectrunner.Option
	for _, class := range []string{"Artist", "Theater"} {
		var entries []objectrunner.Entry
		for _, e := range concertDicts()[class] {
			entries = append(entries, objectrunner.Entry{Value: e.Value, Confidence: e.Confidence})
		}
		opts = append(opts, objectrunner.WithDictionary(class, entries))
	}
	ex, err := objectrunner.New(concertSOD, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return objectrunner.NewService(ex, objectrunner.StoreConfig{})
}

func postJSON(t testing.TB, url string, body any) *http.Response {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func decodeBody[T any](t testing.TB, resp *http.Response) T {
	t.Helper()
	defer resp.Body.Close()
	var v T
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	return v
}

func wrapConcerts(t testing.TB, baseURL, source string) apiv1.WrapResponse {
	t.Helper()
	resp := postJSON(t, baseURL+"/v1/wrap", apiv1.WrapRequest{
		Source: source, SOD: concertSOD, Pages: concertPages(), Dictionaries: concertDicts(),
	})
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		t.Fatalf("wrap status = %d: %s", resp.StatusCode, b)
	}
	return decodeBody[apiv1.WrapResponse](t, resp)
}

func TestWrapExtractRoundTrip(t *testing.T) {
	srv := New(Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	wr := wrapConcerts(t, ts.URL, "concerts")
	if wr.Score <= 0 || wr.Pages != 3 {
		t.Errorf("wrap response = %+v", wr)
	}

	resp := postJSON(t, ts.URL+"/v1/extract", apiv1.ExtractRequest{Source: "concerts", Pages: concertPages()})
	if resp.Header.Get("X-Trace-Id") == "" {
		t.Error("missing X-Trace-Id header")
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("extract status = %d", resp.StatusCode)
	}
	er := decodeBody[apiv1.ExtractResponse](t, resp)
	if er.Count != 4 {
		t.Fatalf("extracted %d objects, want 4", er.Count)
	}

	// The HTTP response must be identical to library-level ServeExtract.
	svc := concertService(t)
	objs, err := svc.ServeExtract(context.Background(), "concerts", concertPages())
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(objectrunner.FlattenObjects(objs))
	if err != nil {
		t.Fatal(err)
	}
	got, err := json.Marshal(er.Objects)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("HTTP output differs from ServeExtract:\n got: %s\nwant: %s", got, want)
	}
}

// TestExtractResponseBytes: the extract answer is byte for byte what
// encoding/json writes for apiv1.ExtractResponse over FlattenObjects —
// with objects and with none, without a node id and in a (one-node)
// cluster where the node id is set — and carries its Content-Length.
func TestExtractResponseBytes(t *testing.T) {
	svc := concertService(t)
	self, err := cluster.New("n1", []cluster.Node{{ID: "n1"}}, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, cfg := range []Config{{}, {Cluster: self}} {
		srv := New(cfg)
		ts := httptest.NewServer(srv.Handler())
		wrapConcerts(t, ts.URL, "concerts")
		for _, pages := range [][]string{concertPages(), {"<html><body><p>no concerts this week</p></body></html>"}} {
			resp := postJSON(t, ts.URL+"/v1/extract", apiv1.ExtractRequest{Source: "concerts", Pages: pages})
			got, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			objs, err := svc.ServeExtract(context.Background(), "concerts", pages)
			if err != nil {
				t.Fatal(err)
			}
			var want bytes.Buffer
			if err := json.NewEncoder(&want).Encode(apiv1.ExtractResponse{
				Source: "concerts", Pages: len(pages), Count: len(objs),
				Objects: objectrunner.FlattenObjects(objs), Node: srv.nodeID,
			}); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want.Bytes()) {
				t.Errorf("node %q, %d objects: response differs from encoding/json\n got: %s\nwant: %s",
					srv.nodeID, len(objs), got, want.Bytes())
			}
			if cl := resp.Header.Get("Content-Length"); cl != strconv.Itoa(len(got)) {
				t.Errorf("Content-Length = %q for a %d-byte body", cl, len(got))
			}
		}
		ts.Close()
	}
}

func TestWrapReuseAndReplace(t *testing.T) {
	srv := New(Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	wrapConcerts(t, ts.URL, "concerts")
	wrapConcerts(t, ts.URL, "concerts") // identical spec: reuse, cache hit
	src := srv.lookup("concerts")
	if st := src.svc.Stats(); st.Misses != 1 || st.Hits != 1 {
		t.Errorf("stats after re-wrap = %+v, want 1 miss + 1 hit", st)
	}

	// A changed spec (extra dictionary entry) replaces the registration
	// and re-infers rather than serving the stale wrapper.
	dicts := concertDicts()
	dicts["Artist"] = append(dicts["Artist"], apiv1.Entry{Value: "The Strokes", Confidence: 0.9})
	resp := postJSON(t, ts.URL+"/v1/wrap", apiv1.WrapRequest{
		Source: "concerts", SOD: concertSOD, Pages: concertPages(), Dictionaries: dicts,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("re-wrap status = %d", resp.StatusCode)
	}
	resp.Body.Close()
	if src2 := srv.lookup("concerts"); src2 == src {
		t.Error("changed spec did not replace the registration")
	}
}

func TestExtractUnknownSource(t *testing.T) {
	srv := New(Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	resp := postJSON(t, ts.URL+"/v1/extract", apiv1.ExtractRequest{Source: "nope", Pages: concertPages()})
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("status = %d, want 404", resp.StatusCode)
	}
	er := decodeBody[apiv1.Error](t, resp)
	if !strings.Contains(er.Error, "nope") {
		t.Errorf("error = %q, want the source key named", er.Error)
	}
}

func TestWrapValidation(t *testing.T) {
	srv := New(Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	for name, tc := range map[string]struct {
		body   string
		status int
	}{
		"bad json":       {`{"source": `, http.StatusBadRequest},
		"missing fields": {`{"source": "x"}`, http.StatusBadRequest},
		"bad sod":        {`{"source": "x", "sod": "tuple {", "pages": ["<html></html>"]}`, http.StatusBadRequest},
	} {
		resp, err := http.Post(ts.URL+"/v1/wrap", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != tc.status {
			t.Errorf("%s: status = %d, want %d", name, resp.StatusCode, tc.status)
		}
		resp.Body.Close()
	}
}

// extractEdge is one POST /v1/extract body of the edge table: the
// answer it gets once "concerts" is registered (status, and for a 400
// the error text), and whether the one-pass decoder takes it (fast) or
// bails to encoding/json. TestExtractValidation serves the table,
// TestScanExtractRequestBailRule checks its fast column, and it seeds
// FuzzDecodeExtractRequest.
type extractEdge struct {
	name   string
	body   string
	status int
	err    string
	fast   bool
}

func extractEdges() []extractEdge {
	pb, err := json.Marshal(concertPages()[0])
	if err != nil {
		panic(err)
	}
	page := string(pb)
	bad := func(name, body, msg string, fast bool) extractEdge {
		return extractEdge{name, body, http.StatusBadRequest, msg, fast}
	}
	ok := func(name, body string, fast bool) extractEdge {
		return extractEdge{name, body, http.StatusOK, "", fast}
	}
	deep := strings.Repeat("[", 20000) + strings.Repeat("]", 20000)
	const required = "source and pages are required"
	return []extractEdge{
		bad("bad json", `{"source": `, "bad JSON: unexpected EOF", false),
		bad("empty body", ``, "bad JSON: EOF", false),
		bad("missing fields", `{"source": "concerts"}`, required, true),
		bad("empty object", ` {} `, required, true),
		bad("no pages", `{"source":"concerts","pages":[]}`, required, true),
		bad("top-level null", `null`, required, false),
		bad("null source", `{"source":null,"pages":[`+page+`]}`, required, false),
		bad("page not a string", `{"source":"concerts","pages":[1]}`,
			"bad JSON: json: cannot unmarshal number into Go struct field ExtractRequest.pages of type string", false),
		bad("control character", "{\"source\":\"con\ncerts\",\"pages\":[]}",
			`bad JSON: invalid character '\n' in string literal`, false),
		bad("bad escape", `{"source":"con\certs","pages":[]}`,
			`bad JSON: invalid character 'c' in string escape code`, false),
		bad("bad short escape", `{"source":"con\u00zzcerts","pages":[]}`,
			`bad JSON: invalid character 'z' in \u hexadecimal character escape`, false),
		bad("truncated short escape", `{"source":"con\u00e`, "bad JSON: unexpected EOF", false),
		bad("unknown field nested 20000 deep", `{"source":"concerts","pages":[`+page+`],"x":`+deep+`}`,
			"bad JSON: invalid character '[' exceeded max depth", false),
		ok("canonical", `{"source":"concerts","pages":[`+page+`]}`, true),
		ok("python style", "{\"source\": \"concerts\",\r\n \"pages\": [ "+page+" , "+page+" ]}", true),
		ok("pages first", `{"pages":[`+page+`],"source":"concerts"}`, true),
		ok("escaped text", `{"source":"concerts","pages":["<p>caf\u00e9 \ud83d\ude00 \u2028 \/ \"q\" \\ \b\f\n\r\t \u0000</p>"]}`, true),
		ok("short escapes", `{"source":"concerts","pages":["\u003cp\u003E\u0026 caf\u00E9 \u00ff \u0041\u00410\u003c/p\u003e"]}`, true),
		ok("trailing bytes", `{"source":"concerts","pages":[`+page+`]} trailing`, true),
		ok("unknown field", `{"source":"concerts","pages":[`+page+`],"extra":{"a":[1,null]}}`, false),
		ok("duplicate pages", `{"source":"concerts","pages":[],"pages":[`+page+`]}`, false),
		ok("key Pages", `{"source":"concerts","Pages":[`+page+`]}`, false),
		ok("escaped key", `{"sour\u0063e":"concerts","pages":[`+page+`]}`, false),
		ok("lone surrogate", `{"source":"concerts","pages":["<p>\ud800</p>"]}`, false),
		ok("reversed surrogates", `{"source":"concerts","pages":["<p>\ude00\ud83d</p>"]}`, false),
		ok("invalid UTF-8", "{\"source\":\"concerts\",\"pages\":[\"<p>\xff</p>\"]}", false),
	}
}

// TestExtractValidation serves the edge table: what the one-pass decoder
// bails on, encoding/json decides, with its own error texts.
func TestExtractValidation(t *testing.T) {
	srv := New(Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	wrapConcerts(t, ts.URL, "concerts")

	for _, tc := range extractEdges() {
		resp, err := http.Post(ts.URL+"/v1/extract", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != tc.status {
			t.Errorf("%s: status = %d, want %d", tc.name, resp.StatusCode, tc.status)
		}
		if tc.status == http.StatusBadRequest {
			if er := decodeBody[apiv1.Error](t, resp); er.Error != tc.err {
				t.Errorf("%s: error = %q, want %q", tc.name, er.Error, tc.err)
			}
			continue
		}
		resp.Body.Close()
	}
}

func TestWrapAbortedSourceIs422(t *testing.T) {
	srv := New(Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	resp := postJSON(t, ts.URL+"/v1/wrap", apiv1.WrapRequest{
		Source: "about", SOD: concertSOD, Dictionaries: concertDicts(),
		Pages: []string{
			"<html><body><p>about our company</p></body></html>",
			"<html><body><p>terms of service</p></body></html>",
		},
	})
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("status = %d, want 422", resp.StatusCode)
	}
	er := decodeBody[apiv1.Error](t, resp)
	if er.Report == "" {
		t.Error("422 response carries no inference report")
	}
}

func TestBodyLimit(t *testing.T) {
	srv := New(Config{MaxBodyBytes: 256})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	marshal := func(v any) string {
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	for _, tc := range []struct{ name, path, body string }{
		{"wrap", "/v1/wrap", marshal(apiv1.WrapRequest{
			Source: "concerts", SOD: concertSOD, Pages: concertPages(),
		})},
		{"extract", "/v1/extract", marshal(apiv1.ExtractRequest{Source: "concerts", Pages: concertPages()})},
		// The body is read whole before it is decoded, so a request that
		// ends before the limit but is padded past it is refused too.
		{"extract padded", "/v1/extract", `{"source":"concerts","pages":["<p>x</p>"]}` + strings.Repeat(" ", 300)},
	} {
		resp, err := http.Post(ts.URL+tc.path, "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Errorf("%s: status = %d, want 413", tc.name, resp.StatusCode)
		}
		resp.Body.Close()
	}
}

func TestBackpressure429(t *testing.T) {
	srv := New(Config{MaxInflight: 1})
	entered := make(chan struct{})
	release := make(chan struct{})
	blocked := srv.limited(func(w http.ResponseWriter, r *http.Request) {
		close(entered)
		<-release
		w.WriteHeader(http.StatusOK)
	})

	first := httptest.NewRecorder()
	firstDone := make(chan struct{})
	go func() {
		defer close(firstDone)
		blocked(first, httptest.NewRequest("POST", "/v1/extract", nil))
	}()
	<-entered

	// The semaphore is full: the next request is refused immediately.
	second := httptest.NewRecorder()
	srv.limited(func(w http.ResponseWriter, r *http.Request) {
		t.Error("handler ran past a full semaphore")
	})(second, httptest.NewRequest("POST", "/v1/extract", nil))
	if second.Code != http.StatusTooManyRequests {
		t.Errorf("status = %d, want 429", second.Code)
	}
	if second.Header().Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}

	close(release)
	<-firstDone
	if first.Code != http.StatusOK {
		t.Errorf("first request status = %d", first.Code)
	}
	// The slot was released: the next request goes through.
	third := httptest.NewRecorder()
	srv.limited(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
	})(third, httptest.NewRequest("POST", "/v1/extract", nil))
	if third.Code != http.StatusOK {
		t.Errorf("post-release status = %d, want 200", third.Code)
	}
	if got := srv.obs.Counter("http.throttled"); got != 1 {
		t.Errorf("http.throttled = %d, want 1", got)
	}
}

func TestDrainRefusesNewWork(t *testing.T) {
	srv := New(Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	wrapConcerts(t, ts.URL, "concerts")

	srv.Drain()
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("healthz status = %d, want 503 while draining", resp.StatusCode)
	}
	resp.Body.Close()
	resp = postJSON(t, ts.URL+"/v1/extract", apiv1.ExtractRequest{Source: "concerts", Pages: concertPages()})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("extract status = %d, want 503 while draining", resp.StatusCode)
	}
	resp.Body.Close()
}

func TestPanicRecovery(t *testing.T) {
	srv := New(Config{})
	h := srv.instrument(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		panic("kaboom")
	}))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/sources", nil))
	if rec.Code != http.StatusInternalServerError {
		t.Errorf("status = %d, want 500", rec.Code)
	}
	if got := srv.obs.Counter("http.panics"); got != 1 {
		t.Errorf("http.panics = %d, want 1", got)
	}
}

func TestRequestTimeout(t *testing.T) {
	srv := New(Config{RequestTimeout: time.Millisecond})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	// A page set large enough that inference cannot finish in 1ms.
	pages := make([]string, 0, 40*3)
	for i := 0; i < 40; i++ {
		pages = append(pages, concertPages()...)
	}
	resp := postJSON(t, ts.URL+"/v1/wrap", apiv1.WrapRequest{
		Source: "concerts", SOD: concertSOD, Pages: pages, Dictionaries: concertDicts(),
	})
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Errorf("status = %d, want 504", resp.StatusCode)
	}
	resp.Body.Close()
}

func TestDeleteSource(t *testing.T) {
	srv := New(Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	wrapConcerts(t, ts.URL, "site/concerts")

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/sources/site/concerts", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("delete status = %d, want 204", resp.StatusCode)
	}
	resp.Body.Close()

	resp = postJSON(t, ts.URL+"/v1/extract", apiv1.ExtractRequest{Source: "site/concerts", Pages: concertPages()})
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("extract after delete = %d, want 404", resp.StatusCode)
	}
	resp.Body.Close()

	req, _ = http.NewRequest(http.MethodDelete, ts.URL+"/v1/sources/site/concerts", nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("double delete = %d, want 404", resp.StatusCode)
	}
	resp.Body.Close()
}

func TestSourcesAndMetrics(t *testing.T) {
	srv := New(Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	wrapConcerts(t, ts.URL, "concerts")
	resp := postJSON(t, ts.URL+"/v1/extract", apiv1.ExtractRequest{Source: "concerts", Pages: concertPages()})
	resp.Body.Close()

	resp, err := http.Get(ts.URL + "/v1/sources")
	if err != nil {
		t.Fatal(err)
	}
	list := decodeBody[struct {
		Sources []apiv1.SourceInfo `json:"sources"`
	}](t, resp)
	if len(list.Sources) != 1 || list.Sources[0].Source != "concerts" {
		t.Fatalf("sources = %+v", list.Sources)
	}
	if list.Sources[0].Stats.Misses != 1 || list.Sources[0].Stats.Hits != 1 {
		t.Errorf("source stats = %+v, want 1 miss (wrap) + 1 hit (extract)", list.Sources[0].Stats)
	}

	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	m := decodeBody[metricsResponse](t, resp)
	if m.Counters["http.requests"] < 3 {
		t.Errorf("http.requests = %d, want >= 3", m.Counters["http.requests"])
	}
	if m.Counters["http.status.2xx"] == 0 {
		t.Error("no 2xx responses counted")
	}
	if _, ok := m.Histograms["span.http.request"]; !ok {
		keys := make([]string, 0, len(m.Histograms))
		for k := range m.Histograms {
			keys = append(keys, k)
		}
		t.Errorf("no http.request histogram; have %v", keys)
	}
	if st, ok := m.Sources["concerts"]; !ok || st.Len != 1 {
		t.Errorf("metrics sources = %+v", m.Sources)
	}
	if m.Counters[obs.SeriesKey("store.misses", obs.L("source", "concerts"))] == 0 {
		t.Error("store counters not flowing through the shared observer")
	}
	if m.Counters[obs.SeriesKey("serve.pages", obs.L("source", "concerts"))] == 0 {
		t.Error("per-source serve counters not flowing through the shared observer")
	}
	if m.UptimeSeconds <= 0 {
		t.Errorf("uptime_seconds = %v, want > 0", m.UptimeSeconds)
	}
	if m.Build.GoVersion == "" || m.Build.Revision == "" {
		t.Errorf("build info = %+v, want go version and revision", m.Build)
	}
}

func TestHealthz(t *testing.T) {
	srv := New(Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	h := decodeBody[map[string]any](t, resp)
	if h["status"] != "ok" {
		t.Errorf("healthz = %v", h)
	}
}
