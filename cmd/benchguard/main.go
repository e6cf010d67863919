// Command benchguard compares a fresh benchmark run against a committed
// baseline and fails when any benchmark regressed past the tolerance —
// the regression gate behind `make bench-guard`.
//
// Both sides are `go test -json` streams as written by the Makefile's
// bench targets (BENCH_parallel.json, BENCH_serve.json): every "output"
// event whose text is a benchmark result line like
//
//	BenchmarkWrapParallel/workers=4-8   	     100	  14752310 ns/op	  123456 B/op	  789 allocs/op
//
// is parsed into (name, ns/op, allocs/op). The trailing -N GOMAXPROCS
// suffix is stripped so records compare across machines, and when a
// stream carries several results for one benchmark (-count > 1), the
// minimum of each measure is kept — the fastest observed run is the
// least noisy estimate of what the code can do, which is the right
// basis on loaded CI runners. With several repeats the table also
// prints each fresh benchmark's min–max of ns/op and allocs/op beside
// the gated minimum; the spread is never gated.
//
// Usage:
//
//	benchguard [-tolerance 0.20] [-alloc-tolerance 0] baseline.json:fresh.json [more pairs...]
//
// Exit status 1 when any benchmark present in a baseline is missing from
// its fresh run, slower than baseline*(1+tolerance), or allocating more
// than baseline*(1+alloc-tolerance); benchmarks only present in the
// fresh run are reported but do not fail (they gate once they enter the
// baseline). allocs/op gates only where the baseline recorded it (runs
// with -benchmem), so pre-benchmem baselines stay usable. The diff table
// always prints, pass or fail.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// test2json splits one logical benchmark result across output events:
// the name lands in its own event ("BenchmarkWrapParallel/workers=1 \t")
// and the numbers in the next ("      20\t  14713999 ns/op\t..."), so
// the reader recognizes three shapes and stitches name→result pairs.
// The trailing -N GOMAXPROCS suffix is stripped from names.
var (
	// A complete result on one line (plain `go test -bench` output).
	fullLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+\d+\s+([0-9.]+) ns/op(.*)$`)
	// A name-only line announcing the benchmark the next result belongs to.
	nameLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s*$`)
	// A result-only line: iteration count then ns/op.
	resultLine = regexp.MustCompile(`^\s*\d+\s+([0-9.]+) ns/op(.*)$`)
	// The -benchmem tail of a result line.
	allocsPart = regexp.MustCompile(`\s([0-9.]+) allocs/op`)
)

// result is the per-benchmark record the guard compares: minimum ns/op
// across repeats, and minimum allocs/op where -benchmem was on. The
// maxima and the repeat count are only printed, as the spread beside
// the gated minimum.
type result struct {
	ns        float64
	allocs    float64
	hasAllocs bool

	nsMax, allocsMax float64
	runs             int
}

// testEvent is the subset of the `go test -json` event stream we read.
type testEvent struct {
	Action string `json:"Action"`
	Test   string `json:"Test"`
	Output string `json:"Output"`
}

// parseStream reads a `go test -json` (or plain `go test -bench`) stream
// into name → best result. An empty stream is an error: a gate that
// compared nothing must not pass.
func parseStream(r io.Reader, label string) (map[string]result, error) {
	out := make(map[string]result)
	record := func(name, nsText, tail string) {
		ns, err := strconv.ParseFloat(nsText, 64)
		if err != nil {
			return
		}
		cur, seen := out[name]
		if !seen || ns < cur.ns {
			cur.ns = ns
		}
		cur.nsMax = max(cur.nsMax, ns)
		cur.runs++
		if m := allocsPart.FindStringSubmatch(tail); m != nil {
			if al, err := strconv.ParseFloat(m[1], 64); err == nil {
				if !cur.hasAllocs || al < cur.allocs {
					cur.allocs = al
					cur.hasAllocs = true
				}
				cur.allocsMax = max(cur.allocsMax, al)
			}
		}
		out[name] = cur
	}
	// Name of the last name-only output event, waiting for its numbers.
	pending := ""
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		var ev testEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			// Tolerate stray non-JSON lines (e.g. a plain `go test` dump);
			// try to parse the raw line as a benchmark result instead.
			ev = testEvent{Action: "output", Output: sc.Text()}
		}
		if ev.Action != "output" {
			continue
		}
		line := strings.TrimRight(ev.Output, " \t\n")
		switch {
		case fullLine.MatchString(line):
			m := fullLine.FindStringSubmatch(line)
			record(m[1], m[2], m[3])
			pending = ""
		case nameLine.MatchString(line):
			pending = nameLine.FindStringSubmatch(line)[1]
		case resultLine.MatchString(line):
			// Prefer the stitched name; fall back to the event's Test
			// attribution (present on the first result per benchmark, and
			// never carrying the -N GOMAXPROCS suffix).
			name := pending
			if name == "" {
				name = ev.Test
			}
			if name != "" {
				m := resultLine.FindStringSubmatch(line)
				record(name, m[1], m[2])
			}
			pending = ""
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s: no benchmark results found", label)
	}
	return out, nil
}

// readBench parses the stream at path.
func readBench(path string) (map[string]result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return parseStream(f, path)
}

func human(ns float64) string {
	switch {
	case ns >= 1e9:
		return fmt.Sprintf("%.3gs", ns/1e9)
	case ns >= 1e6:
		return fmt.Sprintf("%.4gms", ns/1e6)
	case ns >= 1e3:
		return fmt.Sprintf("%.4gµs", ns/1e3)
	default:
		return fmt.Sprintf("%.4gns", ns)
	}
}

// spread describes a fresh result's repeats: the min–max of ns/op and
// of allocs/op, so a one-run flake reads differently from a shift of
// every run. Empty for a single run.
func spread(r result) string {
	if r.runs < 2 {
		return ""
	}
	s := fmt.Sprintf("  [%d runs: %s–%s", r.runs, human(r.ns), human(r.nsMax))
	if r.hasAllocs {
		s += fmt.Sprintf(", allocs %.0f–%.0f", r.allocs, r.allocsMax)
	}
	return s + "]"
}

// comparePair prints the diff table for one baseline:fresh pair and
// reports whether anything regressed past the tolerances.
func comparePair(w io.Writer, basePath, freshPath string, base, fresh map[string]result, tolerance, allocTolerance float64) (failed bool) {
	names := make([]string, 0, len(base))
	for name := range base {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%s vs %s (tolerance +%.0f%%, allocs +%.0f%%)\n", basePath, freshPath, tolerance*100, allocTolerance*100)
	for _, name := range names {
		b := base[name]
		f, ok := fresh[name]
		if !ok {
			fmt.Fprintf(w, "  FAIL %-50s baseline %10s  fresh: missing\n", name, human(b.ns))
			failed = true
			continue
		}
		delta := (f.ns - b.ns) / b.ns * 100
		verdict := "ok  "
		if f.ns > b.ns*(1+tolerance) {
			verdict = "FAIL"
			failed = true
		}
		alloc := ""
		if b.hasAllocs {
			switch {
			case !f.hasAllocs:
				// The baseline gates allocs but the fresh run did not
				// record them: treat as a regression, not a silent skip.
				verdict = "FAIL"
				failed = true
				alloc = fmt.Sprintf("  allocs %.0f → missing", b.allocs)
			case f.allocs > b.allocs*(1+allocTolerance):
				verdict = "FAIL"
				failed = true
				alloc = fmt.Sprintf("  allocs %.0f → %.0f", b.allocs, f.allocs)
			default:
				alloc = fmt.Sprintf("  allocs %.0f → %.0f", b.allocs, f.allocs)
			}
		}
		fmt.Fprintf(w, "  %s %-50s baseline %10s  fresh %10s  %+6.1f%%%s%s\n",
			verdict, name, human(b.ns), human(f.ns), delta, alloc, spread(f))
	}
	for name, f := range fresh {
		if _, ok := base[name]; !ok {
			fmt.Fprintf(w, "  new  %-50s fresh %10s%s (not in baseline; add via `make bench-baseline`)\n", name, human(f.ns), spread(f))
		}
	}
	return failed
}

func main() {
	tolerance := flag.Float64("tolerance", 0.20, "allowed fractional ns/op regression before failing (0.20 = +20%)")
	allocTolerance := flag.Float64("alloc-tolerance", 0, "allowed fractional allocs/op regression before failing (0 = any increase fails; gates only benchmarks whose baseline recorded allocs)")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(),
			"usage: benchguard [-tolerance 0.20] [-alloc-tolerance 0] baseline.json:fresh.json [more pairs...]\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() == 0 {
		flag.Usage()
		os.Exit(2)
	}

	failed := false
	for _, pair := range flag.Args() {
		basePath, freshPath, ok := strings.Cut(pair, ":")
		if !ok {
			fmt.Fprintf(os.Stderr, "benchguard: argument %q is not baseline:fresh\n", pair)
			os.Exit(2)
		}
		base, err := readBench(basePath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchguard: baseline %v (regenerate with `make bench-baseline`)\n", err)
			os.Exit(2)
		}
		fresh, err := readBench(freshPath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchguard: fresh run %v\n", err)
			os.Exit(2)
		}
		if comparePair(os.Stdout, basePath, freshPath, base, fresh, *tolerance, *allocTolerance) {
			failed = true
		}
	}
	if failed {
		fmt.Println("bench-guard: FAILED — ns/op or allocs/op regressed past tolerance (or a benchmark disappeared)")
		os.Exit(1)
	}
	fmt.Println("bench-guard: ok")
}
