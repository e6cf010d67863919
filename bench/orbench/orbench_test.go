package main

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestPercentile(t *testing.T) {
	inf := math.Inf(1)
	hundred := make([]float64, 100)
	for i := range hundred {
		hundred[i] = float64(100 - i) // 100..1, unsorted on purpose
	}
	for _, tc := range []struct {
		name      string
		xs        []float64
		p         float64
		want      float64
		supported float64
	}{
		{"empty reads as failed", nil, 50, inf, 0},
		{"single sample", []float64{7}, 99, 7, 0},
		{"median of four is the second", []float64{4, 1, 3, 2}, 50, 2, 0},
		{"p50 of 1..100", hundred, 50, 50, 90},
		{"p90 of 1..100", hundred, 90, 90, 90},
		{"p99 of 1..100", hundred, 99, 99, 90},
		{"p100 is the max", hundred, 100, 100, 90},
		{"tiny p is the min", hundred, 0.1, 1, 90},
		{"failures sort last", []float64{1, inf, 2, 3}, 75, 3, 0},
		{"a failed tail is infinite", []float64{1, inf, 2, 3}, 100, inf, 0},
		{"eleven samples support p9.1", []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}, 10, 2, 100.0 / 11},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var d dist
			for _, x := range tc.xs {
				d.add(x)
			}
			if got := d.pct(tc.p); got != tc.want {
				t.Errorf("pct(%v) = %v, want %v", tc.p, got, tc.want)
			}
			if got := d.supported(); math.Abs(got-tc.supported) > 1e-9 {
				t.Errorf("supported() = %v, want %v", got, tc.supported)
			}
			if d.n() != len(tc.xs) {
				t.Errorf("n() = %d, want %d", d.n(), len(tc.xs))
			}
		})
	}
}

// Spreads are read with Python's statistics.quantiles(xs, n=4); these
// expectations are what Python prints for the same inputs.
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs          []float64
		q1, med, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{10, 1, 7, 3}, 1.5, 5, 9.25},
		{[]float64{5, 1}, 0, 3, 6},
		{[]float64{2, 2, 2}, 2, 2, 2},
	} {
		q1, med, q3 := quartiles(tc.xs)
		if q1 != tc.q1 || med != tc.med || q3 != tc.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", tc.xs, q1, med, q3, tc.q1, tc.med, tc.q3)
		}
	}
}

// extractServer answers every extract with the given objects, through
// hook when one is set.
func extractServer(t *testing.T, objects string, hook func(w http.ResponseWriter) bool) *httptest.Server {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if hook != nil && hook(w) {
			return
		}
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write([]byte(`{"source":"s","pages":1,"count":1,"objects":` + objects + "}\n"))
	}))
	t.Cleanup(srv.Close)
	return srv
}

// The generator must not hide a stall: requests due while the server is
// stuck are sent late, and their latency counts from when they were due.
func TestOpenLoopRecordsStall(t *testing.T) {
	const stall = 200 * time.Millisecond
	var mu sync.Mutex
	served := 0
	var stallStart time.Time
	srv := extractServer(t, `[]`, func(http.ResponseWriter) bool {
		// One lock for every request: while the stall holds it, the
		// whole server is stuck, as under a long GC pause.
		mu.Lock()
		defer mu.Unlock()
		served++
		if served == 40 {
			stallStart = time.Now()
			time.Sleep(stall)
		}
		return false
	})
	c := newClient(srv.URL, conns)
	defer c.close()
	const rate = 200
	sched := make([]*op, rate) // one second's worth
	for i := range sched {
		sched[i] = &op{body: []byte(`{}`), pages: 1, want: []byte(`[]`)}
	}
	t0 := time.Now()
	tl := openLoop(c, sched, rate, conns, nil)
	if tl.failed != 0 || tl.ops != rate {
		t.Fatalf("ops %d failed %d, want %d ops and none failed", tl.ops, tl.failed, rate)
	}
	// Requests due in the first half of the stall waited at least the
	// rest of it; their latency must say so.
	interval := time.Second / rate
	first := int(stallStart.Sub(t0)/interval) + 1
	waited := 0
	for _, x := range tl.lat.xs {
		if x >= ms(stall/2)-1 {
			waited++
		}
	}
	if waited < int(stall/2/interval)-1 {
		t.Errorf("%d requests recorded >= %v, want the ~%d due in the stall's first half (from #%d)",
			waited, stall/2, stall/2/interval, first)
	}
	if got := tl.lag.pct(99); got < ms(stall/2) {
		t.Errorf("gen.lag p99 = %.1fms, want at least %v", got, stall/2)
	}
	if want := int(stall/interval) / 2; tl.backlogMax < want {
		t.Errorf("gen.backlog_max = %d, want at least %d", tl.backlogMax, want)
	}
}

func TestResponseChecks(t *testing.T) {
	want := []byte(`[{"a":"1","b":["x","y"]}]`)
	for _, tc := range []struct {
		name    string
		objects string
		status  int
		failed  bool
	}{
		{"exact bytes", `[{"a":"1","b":["x","y"]}]`, http.StatusOK, false},
		{"same objects, other key order and spacing", `[ {"b":["x","y"], "a":"1"} ]`, http.StatusOK, false},
		{"tampered value", `[{"a":"1","b":["x","z"]}]`, http.StatusOK, true},
		{"missing object", `[]`, http.StatusOK, true},
		{"extra object", `[{"a":"1","b":["x","y"]},{"a":"2"}]`, http.StatusOK, true},
		{"set order matters", `[{"a":"1","b":["y","x"]}]`, http.StatusOK, true},
		{"server error", `[{"a":"1","b":["x","y"]}]`, http.StatusInternalServerError, true},
		{"throttled", `[{"a":"1","b":["x","y"]}]`, http.StatusTooManyRequests, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			srv := extractServer(t, tc.objects, func(w http.ResponseWriter) bool {
				if tc.status == http.StatusOK {
					return false
				}
				w.WriteHeader(tc.status)
				return true
			})
			c := newClient(srv.URL, 1)
			defer c.close()
			var tl tally
			var buf bytes.Buffer
			send(c, &op{body: []byte(`{}`), pages: 1, want: want}, time.Now(), &buf, &tl, nil, 0)
			if got := tl.failed == 1; got != tc.failed || tl.ops != 1 {
				t.Fatalf("ops %d failed %d, want failed=%v", tl.ops, tl.failed, tc.failed)
			}
			if tc.failed && !math.IsInf(tl.lat.pct(100), 1) {
				t.Errorf("a failed request must enter the latencies as +Inf, got %v", tl.lat.xs)
			}
		})
	}
}

// TestSmoke runs every workload at tiny scale against a real daemon and
// checks that each run prints every metric BENCHMARK.json names, with
// its unit, and that no operation failed. The traced run uses the albums
// domain, which holds a source the daemon discards with 422: it must
// leave the mix without failing the run.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and drives the daemon")
	}
	t.Setenv("CARGO_TARGET_DIR", t.TempDir())
	root, err := repoRoot()
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type def struct{ Name, Unit string }
	var bench struct {
		Workloads []struct{ Name string }
		EndToEnd  []def `json:"end_to_end"`
		PerLayer  []def `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bench); err != nil {
		t.Fatal(err)
	}
	if len(bench.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark runs %d", len(bench.Workloads), len(workloads))
	}
	check := func(name string, o options, want []def) result {
		t.Helper()
		var stdout, stderr bytes.Buffer
		o.seed, o.runs, o.pages = 7, 1, 6
		if code := runAll(o, &stdout, &stderr); code != 0 {
			t.Fatalf("%s: exit %d\n%s", name, code, stderr.String())
		}
		lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
		var res result
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			t.Fatalf("%s: last line is not a result: %v", name, err)
		}
		if res.Failed != 0 || !res.Correct || res.Attempted == 0 {
			t.Errorf("%s: correct=%v attempted=%d failed=%d\n%s", name, res.Correct, res.Attempted, res.Failed, stderr.String())
		}
		if len(res.Metrics) != len(want) {
			t.Errorf("%s: %d metrics printed, BENCHMARK.json names %d", name, len(res.Metrics), len(want))
		}
		for _, m := range want {
			got, ok := res.Metrics[m.Name]
			if !ok || got.Unit != m.Unit {
				t.Errorf("%s: metric %s = %+v, want unit %q", name, m.Name, got, m.Unit)
			}
		}
		return res
	}
	for _, w := range bench.Workloads {
		check(w.Name, options{workload: w.Name, seconds: 0.9, domains: []string{"cars"}}, bench.EndToEnd)
	}
	traced := check("traced", options{workload: "serve_hot", seconds: 1, trace: true, domains: []string{"albums"}}, bench.PerLayer)
	if got := traced.Metrics["wrap.discarded"].Value; got < 1 {
		t.Errorf("wrap.discarded = %v, want the albums source the daemon rejects", got)
	}
	spans := filepath.Join(os.Getenv("CARGO_TARGET_DIR"), "orbench", "spans-serve_hot-7.jsonl")
	b, err := os.ReadFile(spans)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"serve.http", "serve.tokenize", "wrap.ladder", "pipeline.eqclass"} {
		if !bytes.Contains(b, []byte(`"name":"`+name+`"`)) {
			t.Errorf("span file has no %s span", name)
		}
	}
}
