package main

import (
	"strings"
	"testing"
)

// ev builds one test2json output event line.
func ev(output string) string {
	// Keep it literal: the parser must survive real-world escaping, so
	// craft the JSON by hand only for well-formed events.
	b := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\t", `\t`, "\n", `\n`).Replace(output)
	return `{"Action":"output","Package":"objectrunner","Output":"` + b + `"}`
}

func TestParseStreamStitchedResult(t *testing.T) {
	stream := strings.Join([]string{
		ev("BenchmarkServeCache/cache_hit-8 \t\n"),
		ev("    1000\t     35476 ns/op\t    2088 B/op\t      63 allocs/op\n"),
	}, "\n")
	got, err := parseStream(strings.NewReader(stream), "t")
	if err != nil {
		t.Fatal(err)
	}
	r, ok := got["BenchmarkServeCache/cache_hit"]
	if !ok {
		t.Fatalf("benchmark not parsed: %v", got)
	}
	if r.ns != 35476 || !r.hasAllocs || r.allocs != 63 {
		t.Fatalf("result = %+v", r)
	}
}

func TestParseStreamMinAcrossRepeats(t *testing.T) {
	stream := strings.Join([]string{
		ev("BenchmarkX-8   100\t 200 ns/op\t 10 allocs/op\n"),
		ev("BenchmarkX-8   100\t 150 ns/op\t 12 allocs/op\n"),
		ev("BenchmarkX-8   100\t 180 ns/op\t  9 allocs/op\n"),
	}, "\n")
	got, err := parseStream(strings.NewReader(stream), "t")
	if err != nil {
		t.Fatal(err)
	}
	r := got["BenchmarkX"]
	if r.ns != 150 || r.allocs != 9 {
		t.Fatalf("min not kept per measure: %+v", r)
	}
}

// TestParseStreamMalformed drives the parser through broken streams: it
// must either recover the parseable results or reject the stream with an
// error — never report an empty result set as success.
func TestParseStreamMalformed(t *testing.T) {
	cases := []struct {
		name      string
		stream    string
		wantErr   bool
		wantNames []string
	}{
		{
			name:    "empty_stream",
			stream:  "",
			wantErr: true,
		},
		{
			name:    "missing_pass_event_results_still_parse",
			stream:  ev("BenchmarkY-8   50\t 300 ns/op\n"), // no run/pass events at all
			wantErr: false, wantNames: []string{"BenchmarkY"},
		},
		{
			name: "truncated_test2json_line",
			stream: strings.Join([]string{
				ev("BenchmarkA-8   10\t 100 ns/op\n"),
				`{"Action":"output","Output":"BenchmarkB-8   10\t 999 ns/`, // cut mid-event
			}, "\n"),
			wantErr: false, wantNames: []string{"BenchmarkA"},
		},
		{
			name: "non_json_garbage_between_events",
			stream: strings.Join([]string{
				"make[1]: Entering directory '/repo'",
				ev("BenchmarkA-8   10\t 100 ns/op\n"),
				"<<<some binary junk\x01\x02>>>",
			}, "\n"),
			wantErr: false, wantNames: []string{"BenchmarkA"},
		},
		{
			name: "plain_bench_output_not_json",
			stream: strings.Join([]string{
				"goos: linux",
				"BenchmarkPlain-8   \t 100\t 123 ns/op\t 1 B/op\t 2 allocs/op",
				"PASS",
			}, "\n"),
			wantErr: false, wantNames: []string{"BenchmarkPlain"},
		},
		{
			name: "name_event_without_result",
			stream: strings.Join([]string{
				ev("BenchmarkOrphan-8 \t\n"),
				ev("--- FAIL: something\n"),
			}, "\n"),
			wantErr: true, // nothing parseable: the orphan name never got numbers
		},
		{
			name:      "result_without_name_uses_test_attribution",
			stream:    `{"Action":"output","Test":"BenchmarkAttributed","Output":"    10\t 42 ns/op\n"}`,
			wantErr:   false,
			wantNames: []string{"BenchmarkAttributed"},
		},
		{
			name:    "only_non_output_events",
			stream:  `{"Action":"run","Test":"BenchmarkZ"}` + "\n" + `{"Action":"pass","Test":"BenchmarkZ"}`,
			wantErr: true,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, err := parseStream(strings.NewReader(tc.stream), tc.name)
			if tc.wantErr {
				if err == nil {
					t.Fatalf("expected error, got %v", got)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(tc.wantNames) {
				t.Fatalf("parsed %v, want names %v", got, tc.wantNames)
			}
			for _, n := range tc.wantNames {
				if _, ok := got[n]; !ok {
					t.Errorf("missing %s in %v", n, got)
				}
			}
		})
	}
}

// TestCompareAllocGate exercises the allocs/op gate: regression past the
// tolerance fails, a fresh run missing allocs where the baseline has
// them fails, and a benchmark absent from the baseline never fails.
func TestCompareAllocGate(t *testing.T) {
	base := map[string]result{
		"BenchmarkHit": {ns: 100, allocs: 60, hasAllocs: true},
	}
	cases := []struct {
		name      string
		fresh     map[string]result
		tol, aTol float64
		wantFail  bool
	}{
		{"identical", map[string]result{"BenchmarkHit": {ns: 100, allocs: 60, hasAllocs: true}}, 0.2, 0, false},
		{"alloc_regression_strict", map[string]result{"BenchmarkHit": {ns: 100, allocs: 61, hasAllocs: true}}, 0.2, 0, true},
		{"alloc_within_tolerance", map[string]result{"BenchmarkHit": {ns: 100, allocs: 65, hasAllocs: true}}, 0.2, 0.10, false},
		{"alloc_past_tolerance", map[string]result{"BenchmarkHit": {ns: 100, allocs: 70, hasAllocs: true}}, 0.2, 0.10, true},
		{"fresh_missing_allocs", map[string]result{"BenchmarkHit": {ns: 100}}, 0.2, 0, true},
		{"ns_regression", map[string]result{"BenchmarkHit": {ns: 130, allocs: 60, hasAllocs: true}}, 0.2, 0, true},
		{"bench_vanished", map[string]result{"BenchmarkOther": {ns: 1}}, 0.2, 0, true},
		{"new_bench_in_fresh_ok", map[string]result{
			"BenchmarkHit": {ns: 100, allocs: 60, hasAllocs: true},
			"BenchmarkNew": {ns: 5, allocs: 1000, hasAllocs: true},
		}, 0.2, 0, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var sb strings.Builder
			failed := comparePair(&sb, "base.json", "fresh.json", base, tc.fresh, tc.tol, tc.aTol)
			if failed != tc.wantFail {
				t.Fatalf("failed = %v, want %v\n%s", failed, tc.wantFail, sb.String())
			}
		})
	}
}

// TestCompareNoAllocsInBaseline keeps pre-benchmem baselines usable: a
// baseline without allocs/op must not gate the fresh run's allocations.
func TestCompareNoAllocsInBaseline(t *testing.T) {
	base := map[string]result{"BenchmarkOld": {ns: 100}}
	fresh := map[string]result{"BenchmarkOld": {ns: 100, allocs: 1e9, hasAllocs: true}}
	var sb strings.Builder
	if comparePair(&sb, "b", "f", base, fresh, 0.2, 0) {
		t.Fatalf("alloc gate fired without baseline allocs\n%s", sb.String())
	}
}

// TestSpreadPrinted: with several repeats the table shows each fresh
// benchmark's min–max of ns/op and allocs/op beside the gated minimum
// (a one-alloc flake in one run reads as "3962–3963"), and the gate
// still uses the minimum.
func TestSpreadPrinted(t *testing.T) {
	stream := strings.Join([]string{
		ev("BenchmarkServeCache/cold_wrap-1 \t\n"),
		ev("      20\t   1761548 ns/op\t  870878 B/op\t    3963 allocs/op\n"),
		ev("BenchmarkServeCache/cold_wrap-1 \t\n"),
		ev("      20\t   1682887 ns/op\t  870888 B/op\t    3962 allocs/op\n"),
		ev("BenchmarkServeCache/cold_wrap-1 \t\n"),
		ev("      20\t   1714495 ns/op\t  870892 B/op\t    3963 allocs/op\n"),
		ev("BenchmarkOnce-1   10\t 100 ns/op\t 5 allocs/op\n"),
	}, "\n")
	fresh, err := parseStream(strings.NewReader(stream), "t")
	if err != nil {
		t.Fatal(err)
	}
	r := fresh["BenchmarkServeCache/cold_wrap"]
	if r.runs != 3 || r.ns != 1682887 || r.nsMax != 1761548 || r.allocs != 3962 || r.allocsMax != 3963 {
		t.Fatalf("result = %+v", r)
	}
	base := map[string]result{
		"BenchmarkServeCache/cold_wrap": {ns: 1682887, allocs: 3962, hasAllocs: true},
		"BenchmarkOnce":                 {ns: 100, allocs: 5, hasAllocs: true},
	}
	var sb strings.Builder
	if comparePair(&sb, "b", "f", base, fresh, 0.2, 0) {
		t.Fatalf("gate failed on its minima\n%s", sb.String())
	}
	out := sb.String()
	if !strings.Contains(out, "[3 runs: 1.683ms–1.762ms, allocs 3962–3963]") {
		t.Errorf("no spread for the repeated benchmark:\n%s", out)
	}
	for _, line := range strings.Split(out, "\n") {
		if strings.Contains(line, "BenchmarkOnce") && strings.Contains(line, "runs") {
			t.Errorf("spread printed for a single run: %q", line)
		}
	}
}
