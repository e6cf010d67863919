// Command orbench is the end-to-end benchmark of objectrunnerd's extract
// and wrap paths. One run generates the sitegen corpus, builds and starts
// the daemon with default flags, registers every source, and drives one
// workload, drawn from the seed, from this process over at most two
// keep-alive connections. It checks every response against reference
// objects and prints one JSON result line last on stdout.
//
// Usage (from the repository root; bench/orbench/run.sh builds it):
//
//	orbench --workload serve_hot --seed 42 --seconds 10 --trace 0
//
// --trace 1 replaces the end-to-end metrics with the per-layer ladder
// (ladder.go) and writes the run's spans as JSON lines. --runs N repeats
// the run on seeds seed..seed+N-1 and prints each metric's median,
// quartiles and spread. See README.md for the metrics and workloads.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"time"

	"objectrunner/internal/obs"
)

// conns is the connection budget: one per CPU of the box the benchmark
// was calibrated on, shared by all of a run's traffic.
const conns = 2

// setupReps is how many times each run starts a daemon and registers the
// corpus; setup_s is their median.
const setupReps = 3

// workload is one traffic mix, sent open loop at a fixed rate. The rates
// are well below capacity (README: closed-loop capacity on 2 vCPUs is
// about 3100, 660 and 1500 requests/s): at half of capacity or more, the
// median latency of four 3 s repetitions on one daemon spread by up to
// 1.5× (serve_hot), 1.7× (mixed) and 3.2× (serve_batch), so a second,
// loaded rate could not be held within any bound.
type workload struct {
	// batch requests carry every page of one source; otherwise a
	// request carries a window of 3 consecutive pages.
	batch bool
	// wrapping gives the second connection to a loop of cold wraps for
	// the whole measurement, leaving the extract traffic one connection.
	wrapping bool
	rate     float64 // requests per second
}

var workloads = map[string]workload{
	"serve_hot":   {rate: 200},
	"serve_batch": {batch: true, rate: 40},
	"mixed":       {wrapping: true, rate: 200},
}

// metricDef names one reported metric; the names and units match
// BENCHMARK.json.
type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"extract_p50_ms", "ms"},
	{"extract_p90_ms", "ms"},
	{"quality_pc", "ratio"},
	{"quality_pp", "ratio"},
	{"rss_peak_mb", "MB"},
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// setMetric stores one of the declared metrics in res. A percentile that
// lands on a failed request is infinite; JSON has no infinity, so it
// reads as an hour.
func setMetric(res *result, defs []metricDef, name string, v float64) {
	for _, m := range defs {
		if m.name == name {
			if math.IsInf(v, 0) || math.IsNaN(v) {
				v = math.Copysign(3.6e6, v)
			}
			res.Metrics[name] = metric{Value: v, Unit: m.unit}
			return
		}
	}
	panic("orbench: undeclared metric " + name)
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	runs     int
	// pages and domains shrink the corpus (zero values: the full one);
	// the smoke test sets them.
	pages   int
	domains []string
}

func main() {
	os.Exit(mainErr(os.Args[1:], os.Stdout, os.Stderr))
}

func mainErr(args []string, stdout, stderr io.Writer) int {
	o, err := parseFlags(args, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "orbench:", err)
		return 2
	}
	return runAll(o, stdout, stderr)
}

// runAll runs o.runs runs on consecutive seeds and prints the result.
func runAll(o options, stdout, stderr io.Writer) int {
	var results []*result
	for i := 0; i < o.runs; i++ {
		ro := o
		ro.seed = o.seed + uint64(i)
		r, err := run(ro, stderr)
		if err != nil {
			fmt.Fprintln(stderr, "orbench:", err)
			return 1
		}
		results = append(results, r)
		if o.runs > 1 {
			b, _ := json.Marshal(r)
			fmt.Fprintln(stdout, string(b))
		}
	}
	out := results[0]
	if len(results) > 1 {
		out = summarize(results, stderr)
	}
	b, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(stderr, "orbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(b))
	return 0
}

func parseFlags(args []string, stderr io.Writer) (options, error) {
	fs := flag.NewFlagSet("orbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var trace int
	fs.StringVar(&o.workload, "workload", "serve_hot", "workload: serve_hot, serve_batch or mixed")
	fs.Uint64Var(&o.seed, "seed", 42, "seed of the request mix")
	fs.Float64Var(&o.seconds, "seconds", 10, "seconds of measured traffic, split over three daemons and rounded up to whole rounds over the sources")
	fs.IntVar(&trace, "trace", 0, "1 runs the per-layer ladder instead of the end-to-end measurement")
	fs.IntVar(&o.runs, "runs", 1, "runs on consecutive seeds; more than one prints median, quartiles and spread")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if _, ok := workloads[o.workload]; !ok {
		return o, fmt.Errorf("unknown workload %q", o.workload)
	}
	if o.seconds <= 0 || o.runs < 1 || (trace != 0 && trace != 1) {
		return o, errors.New("--seconds must be positive, --runs at least 1 and --trace 0 or 1")
	}
	o.trace = trace == 1
	return o, nil
}

// buildDir is where the benchmark keeps what it builds and writes:
// $CARGO_TARGET_DIR, by default .bench_build under the repository root.
func buildDir(root string) (string, error) {
	dir := os.Getenv("CARGO_TARGET_DIR")
	if dir == "" {
		dir = ".bench_build"
	}
	if !filepath.IsAbs(dir) {
		dir = filepath.Join(root, dir)
	}
	dir = filepath.Join(dir, "orbench")
	return dir, os.MkdirAll(dir, 0o755)
}

// session is one daemon, started and registered with the whole corpus.
type session struct {
	d     *daemon
	c     *client
	setup time.Duration // from starting the process to the last registration
	wraps *tally
}

func newSession(bin string, srcs []*source, setupConns int) (*session, error) {
	start := time.Now()
	d, err := startDaemon(bin)
	if err != nil {
		return nil, err
	}
	c := newClient(d.base, conns)
	t := register(c, srcs, setupConns)
	return &session{d: d, c: c, setup: time.Since(start), wraps: t}, nil
}

func (s *session) close(log io.Writer) {
	s.c.close()
	if err := s.d.stop(); err != nil {
		fmt.Fprintln(log, "orbench: daemon exit:", err)
	}
}

// run is one run of one workload on one seed. It sets up setupReps
// daemons one after another and gives each a third of the measured
// traffic right after its set-up, so every metric samples three
// processes spread over the run rather than one stretch of it.
func run(o options, log io.Writer) (*result, error) {
	root, err := repoRoot()
	if err != nil {
		return nil, err
	}
	dir, err := buildDir(root)
	if err != nil {
		return nil, err
	}
	bin, err := buildDaemon(root, dir)
	if err != nil {
		return nil, err
	}
	srcs, err := loadCorpus(o.pages, o.domains)
	if err != nil {
		return nil, err
	}
	wl := workloads[o.workload]
	res := &result{Correct: true, Metrics: make(map[string]metric)}
	if o.trace {
		return res, traceRun(o, dir, bin, srcs, wl, res, log)
	}

	var setups, lat, rss dist
	var p *plan
	var discarded []bool
	var pc, pp float64
	count := func(t *tally) {
		res.Attempted += t.ops
		res.Failed += t.failed
	}
	rep := func(r int) error {
		s, err := newSession(bin, srcs, conns)
		if err != nil {
			return err
		}
		defer s.close(log)
		setups.add(s.setup.Seconds())
		count(s.wraps)
		// Inference is deterministic, so every daemon must discard the
		// same sources.
		now := make([]bool, len(srcs))
		for i, src := range srcs {
			now[i] = src.discarded
		}
		if discarded != nil && !slices.Equal(discarded, now) {
			res.Correct = false
			fmt.Fprintln(log, "orbench: daemons disagree on which sources are discarded")
		}
		discarded = now
		if r == 0 {
			live := kept(srcs)
			if len(live) == 0 {
				return errors.New("every source was discarded")
			}
			count(verify(s.c, srcs, conns))
			pc, pp = quality(srcs)
			if p, err = newPlan(o.seed, live, wl, o.seconds/setupReps); err != nil {
				return err
			}
		}
		t, bg := measure(s.c, wl, p, nil)
		count(t)
		lat.xs = append(lat.xs, t.lat.xs...)
		mb, err := s.d.peakRSSMB()
		if err != nil {
			return err
		}
		rss.add(mb)
		fmt.Fprintf(log, "orbench: %s seed %d daemon %d: set-up %.2fs (wrap p50 %.1fms), extract p50 %.3fms p90 %.3fms (lag p99 %.2fms, backlog max %d), rss %.1fMB\n",
			o.workload, o.seed, r+1, s.setup.Seconds(), s.wraps.lat.pct(50), t.lat.pct(50), t.lat.pct(90),
			t.lag.pct(99), t.backlogMax, mb)
		if bg != nil {
			count(bg)
			fmt.Fprintf(log, "orbench: wrap loop: %d wraps, p50 %.1fms\n", bg.lat.n(), bg.lat.pct(50))
		}
		return nil
	}
	for r := 0; r < setupReps; r++ {
		if err := rep(r); err != nil {
			return nil, err
		}
	}

	set := func(name string, v float64) { setMetric(res, endToEnd, name, v) }
	set("setup_s", setups.pct(50))
	set("extract_p50_ms", lat.pct(50))
	set("extract_p90_ms", lat.pct(90))
	set("quality_pc", pc)
	set("quality_pp", pp)
	set("rss_peak_mb", rss.pct(50))
	fmt.Fprintf(log, "orbench: %s seed %d: %d sources, %d discarded; %d extract samples (p%.1f supported)\n",
		o.workload, o.seed, len(srcs), len(srcs)-len(kept(srcs)), lat.n(), lat.supported())
	fmt.Fprintf(log, "orbench: ops %d ops_failed %d\n", res.Attempted, res.Failed)
	if res.Failed > 0 {
		res.Correct = false
	}
	return res, nil
}

// plan is a run's pre-encoded traffic.
type plan struct {
	sched []*op
	// wrapKeys and wrapBodies are the wrap loop's registrations.
	wrapKeys   []string
	wrapBodies [][]byte
}

// measure sends the workload's extract traffic. With wrapping set, a
// cold-wrap loop holds the second connection meanwhile. A traced run
// passes its observer; ob is nil otherwise.
func measure(c *client, wl workload, p *plan, ob *obs.Observer) (t, bg *tally) {
	extractConns := conns
	var stop, done chan struct{}
	if wl.wrapping {
		extractConns = conns - 1
		stop, done = make(chan struct{}), make(chan struct{})
		go func() {
			defer close(done)
			bg = wrapLoop(c, p.wrapKeys, p.wrapBodies, stop)
		}()
	}
	t = openLoop(c, p.sched, wl.rate, extractConns, ob)
	if stop != nil {
		close(stop)
		<-done
	}
	return t, bg
}

// newPlan draws the run's traffic from the seed and pre-encodes it.
func newPlan(seed uint64, live []*source, wl workload, seconds float64) (*plan, error) {
	rng := rand.New(rand.NewSource(int64(seed)))
	sched, err := schedule(rng, live, wl, seconds)
	if err != nil {
		return nil, err
	}
	p := &plan{sched: sched}
	if wl.wrapping {
		if p.wrapKeys, p.wrapBodies, err = wrapCycle(rng, live); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// schedule draws the request sequence: the requests the rate and
// duration call for, rounded up to whole rounds over the sources.
// Sources come round robin from a seeded permutation, so each carries
// exactly the same share of the traffic and the seed does not pick which
// sources get one request more; a 3-page request then picks its window
// uniformly.
func schedule(rng *rand.Rand, live []*source, wl workload, seconds float64) ([]*op, error) {
	type key struct {
		s  *source
		lo int
	}
	cache := make(map[key]*op)
	perm := rng.Perm(len(live))
	next := 0
	pick := func() (*op, error) {
		s := live[perm[next%len(perm)]]
		next++
		lo, hi := 0, len(s.gen.HTML)
		if !wl.batch && hi > 3 {
			lo = rng.Intn(hi - 2)
			hi = lo + 3
		}
		if o := cache[key{s, lo}]; o != nil {
			return o, nil
		}
		o, err := s.extractOp(lo, hi)
		cache[key{s, lo}] = o
		return o, err
	}
	rounds := max(1, int(math.Ceil(wl.rate*seconds/float64(len(live)))))
	sched := make([]*op, rounds*len(live))
	for i := range sched {
		o, err := pick()
		if err != nil {
			return nil, err
		}
		sched[i] = o
	}
	return sched, nil
}

// wrapCycle pre-encodes the mixed workload's wrap loop: every kept
// source in a seeded order, registered under a key of its own.
func wrapCycle(rng *rand.Rand, live []*source) ([]string, [][]byte, error) {
	order := rng.Perm(len(live))
	keys := make([]string, len(order))
	bodies := make([][]byte, len(order))
	for i, j := range order {
		keys[i] = "wraploop/" + live[j].key
		b, err := live[j].wrapRequest(keys[i])
		if err != nil {
			return nil, nil, err
		}
		bodies[i] = b
	}
	return keys, bodies, nil
}

// summarize folds several runs into one result holding each metric's
// median, and prints the median, quartiles and spread (interquartile
// range over median) of every metric. Bounds in BENCHMARK.json were set
// from these spreads.
func summarize(rs []*result, log io.Writer) *result {
	out := &result{Correct: true, Metrics: make(map[string]metric)}
	names := make([]string, 0, len(rs[0].Metrics))
	for name := range rs[0].Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, r := range rs {
		out.Correct = out.Correct && r.Correct
		out.Attempted += r.Attempted
		out.Failed += r.Failed
	}
	fmt.Fprintf(log, "orbench: %d runs\n%-34s %12s %12s %12s %8s\n", len(rs), "metric", "q1", "median", "q3", "spread")
	for _, name := range names {
		var d dist
		for _, r := range rs {
			d.add(r.Metrics[name].Value)
		}
		q1, med, q3 := quartiles(d.xs)
		spread := 0.0
		if med != 0 {
			spread = (q3 - q1) / math.Abs(med)
		}
		fmt.Fprintf(log, "%-34s %12.4f %12.4f %12.4f %7.1f%%\n", name, q1, med, q3, 100*spread)
		out.Metrics[name] = metric{Value: med, Unit: rs[0].Metrics[name].Unit}
	}
	return out
}

// quartiles returns the first quartile, median and third quartile the
// way Python's statistics.quantiles(xs, n=4) computes them (the
// "exclusive" method), so a spread printed here matches one computed
// from the result lines with Python.
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 1 {
		return s[0], s[0], s[0]
	}
	q := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q(1), q(2), q(3)
}
