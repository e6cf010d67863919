package main

// The traced run (--trace 1). It replays the workload's own inputs
// through a ladder of timed calls into each layer's public functions,
// from outside the program: a rung is one call, and a layer's cost is
// its rung minus the rung below it. Spans go to an obs.Observer with an
// in-memory sink and are written as JSON lines when the run ends.
//
// Serve ladder, top to bottom, on a sample of the workload's extract
// requests:
//
//	loopback POST /v1/extract to the daemon          serve.transport_us
//	httpserver Handler().ServeHTTP (httptest)        serve.envelope_us
//	objectrunner Service.ServeExtract                serve.store_us
//	objectrunner Wrapper.ExtractStreamBatchContext   serve.extract_us_per_page
//	per page: eqclass.TokenizeLookupStream, template.ExtractAllStream,
//	          sod.Type.FilterByRules                 serve.{tokenize,match,rules}_us_per_page
//
// Wrap ladder, per source: the daemon's HTTP wrap, then in-process
// objectrunner.New, clean.Page and one wrapper.InferContext with the
// observer attached. InferContext's own
// stage spans (pipeline.segment, .annotate, .tokenize, .eqbase, .eqclass
// per support tried, .template) give the stage times.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"time"

	"objectrunner"
	apiv1 "objectrunner/api/v1"
	"objectrunner/internal/clean"
	"objectrunner/internal/dom"
	"objectrunner/internal/eqclass"
	"objectrunner/internal/httpserver"
	"objectrunner/internal/obs"
	"objectrunner/internal/parallel"
	"objectrunner/internal/recognize"
	"objectrunner/internal/sod"
	"objectrunner/internal/symtab"
	"objectrunner/internal/template"
	"objectrunner/internal/wrapper"
)

// perLayer names the metrics of a traced run; the names and units match
// BENCHMARK.json.
var perLayer = []metricDef{
	{"serve.transport_us", "us"},
	{"serve.envelope_us", "us"},
	{"serve.decode_us", "us"},
	{"serve.encode_us", "us"},
	{"serve.store_us", "us"},
	{"serve.extract_us_per_page", "us"},
	{"serve.tokenize_us_per_page", "us"},
	{"serve.match_us_per_page", "us"},
	{"serve.rules_us_per_page", "us"},
	{"serve.handler_allocs", "count"},
	{"serve.extract_allocs_per_page", "count"},
	{"serve.stream_fallback_ratio", "ratio"},
	{"serve.http_p50_ms", "ms"},
	{"store.hit_ratio", "ratio"},
	{"trace.overhead_us", "us"},
	{"wrap.http_p50_ms", "ms"},
	{"wrap.register_ms", "ms"},
	{"wrap.clean_ms", "ms"},
	{"wrap.segment_ms", "ms"},
	{"wrap.annotate_ms", "ms"},
	{"wrap.tokenize_ms", "ms"},
	{"wrap.eqbase_ms", "ms"},
	{"wrap.analyze_ms", "ms"},
	{"wrap.template_ms", "ms"},
	{"wrap.infer_ms", "ms"},
	{"wrap.envelope_ms", "ms"},
	{"wrap.segment_share", "ratio"},
	{"wrap.annotate_share", "ratio"},
	{"wrap.tokenize_share", "ratio"},
	{"wrap.eqbase_share", "ratio"},
	{"wrap.analyze_share", "ratio"},
	{"wrap.template_share", "ratio"},
	{"wrap.allocs_per_source", "count"},
	{"wrap.gc_cpu_fraction", "ratio"},
	{"wrap.variations", "count"},
	{"wrap.sample_pages", "count"},
	{"wrap.discarded", "count"},
	{"gen.lag_p99_ms", "ms"},
	{"gen.backlog_max", "count"},
}

// ladderTime is how long the serve rungs take turns over their inputs.
const ladderTime = 2 * time.Second

// ladderSources and ladderOps bound the serve ladder's sample of the
// workload's requests: in-process registration infers every
// sampled source once more, so the sample stays small.
const ladderSources, ladderOps = 6, 48

// layers collects a traced run's metrics and equivalence failures.
type layers struct {
	res *result
	log io.Writer
}

func (l *layers) set(name string, v float64) { setMetric(l.res, perLayer, name, v) }

func (l *layers) fail(format string, args ...any) {
	l.res.Correct = false
	fmt.Fprintf(l.log, "orbench: equivalence: "+format+"\n", args...)
}

// traceRun measures the per-layer metrics of the workload into res. It
// sets up one daemon on one connection, so each wrap is timed alone:
// those times are the wrap ladder's top rung.
func traceRun(o options, dir, bin string, srcs []*source, wl workload, res *result, log io.Writer) error {
	spans := obs.NewMemory()
	ob := obs.New(spans)
	l := &layers{res: res, log: log}
	s, err := newSession(bin, srcs, 1)
	if err != nil {
		return err
	}
	defer s.close(log)
	c := s.c
	res.Attempted += s.wraps.ops
	res.Failed += s.wraps.failed
	l.set("wrap.http_p50_ms", s.wraps.lat.pct(50))
	live := kept(srcs)
	if len(live) == 0 {
		return errors.New("every source was discarded")
	}
	v := verify(c, srcs, conns)
	res.Attempted += v.ops
	res.Failed += v.failed
	p, err := newPlan(o.seed, live, wl, o.seconds)
	if err != nil {
		return err
	}

	before, err := daemonCounters(c)
	if err != nil {
		return err
	}
	t, bg := measure(c, wl, p, ob)
	after, err := daemonCounters(c)
	if err != nil {
		return err
	}
	res.Attempted += t.ops
	res.Failed += t.failed
	if bg != nil {
		res.Attempted += bg.ops
		res.Failed += bg.failed
	}
	// Every other request recorded a span; the difference of the two
	// halves' medians is the tracing overhead.
	l.set("serve.http_p50_ms", t.traced.pct(50))
	l.set("trace.overhead_us", 1000*(t.traced.pct(50)-t.untraced.pct(50)))
	l.set("gen.lag_p99_ms", t.lag.pct(99))
	l.set("gen.backlog_max", float64(t.backlogMax))
	l.set("serve.stream_fallback_ratio", ratio(after.fallback-before.fallback, after.pages-before.pages))
	l.set("store.hit_ratio", ratio(after.hits-before.hits, after.hits-before.hits+after.misses-before.misses))

	spill, err := os.MkdirTemp(dir, "spill-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(spill)
	if err := serveLadder(c, ladderInputs(p.sched), spill, ob, l); err != nil {
		return err
	}
	if err := wrapLadder(c, srcs, ob, l); err != nil {
		return err
	}

	path := filepath.Join(dir, fmt.Sprintf("spans-%s-%d.jsonl", o.workload, o.seed))
	n, err := writeSpans(path, spans.Events())
	if err != nil {
		return err
	}
	fmt.Fprintf(log, "orbench: %d trace events written to %s\n", n, path)
	for _, m := range perLayer {
		fmt.Fprintf(log, "orbench: %-32s %14.4f %s\n", m.name, res.Metrics[m.name].Value, m.unit)
	}
	fmt.Fprintf(log, "orbench: ops %d ops_failed %d\n", res.Attempted, res.Failed)
	if res.Failed > 0 {
		res.Correct = false
	}
	return nil
}

// writeSpans stores the trace events as JSON lines, in obs's JSONL form.
func writeSpans(path string, events []obs.Event) (int, error) {
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	w := bufio.NewWriter(f)
	sink := obs.JSONL(w)
	for _, e := range events {
		sink.Emit(e)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return 0, err
	}
	return len(events), f.Close()
}

func ratio(num, den int64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

type counters struct{ pages, fallback, hits, misses int64 }

// daemonCounters reads the serve counters from /metrics and the store
// accounting from /v1/sources.
func daemonCounters(c *client) (counters, error) {
	var out counters
	var buf bytes.Buffer
	get := func(path string, v any) error {
		status, err := c.do(http.MethodGet, path, nil, &buf)
		if err != nil || status != http.StatusOK {
			return fmt.Errorf("GET %s: status %d: %v", path, status, err)
		}
		return json.Unmarshal(buf.Bytes(), v)
	}
	var m struct {
		Counters map[string]int64 `json:"counters"`
	}
	if err := get("/metrics", &m); err != nil {
		return out, err
	}
	out.pages, out.fallback = m.Counters["extract.pages"], m.Counters["extract.stream_fallback"]
	var s apiv1.SourcesResponse
	if err := get("/v1/sources", &s); err != nil {
		return out, err
	}
	for _, src := range s.Sources {
		out.hits += src.Stats.Hits
		out.misses += src.Stats.Misses
	}
	return out, nil
}

// ladderInputs samples the serve ladder's inputs from the workload's
// schedule: its first requests, restricted to its first few sources.
func ladderInputs(sched []*op) []*op {
	seen := make(map[*source]bool)
	var out []*op
	for _, o := range sched {
		if !seen[o.source] {
			if len(seen) == ladderSources {
				continue
			}
			seen[o.source] = true
		}
		out = append(out, o)
		if len(out) == ladderOps {
			break
		}
	}
	return out
}

// served is one ladder source's in-process serving state.
type served struct {
	svc   *objectrunner.Service
	outer *objectrunner.Wrapper
	inner *wrapper.Wrapper
	tab   *symtab.Table
}

// serveLadder times the serve rungs on the inputs. The in-process
// handler registers each source through POST /v1/wrap into a spill
// directory, and the service and wrappers below it load from that spill,
// so each source is inferred once.
func serveLadder(c *client, inputs []*op, spill string, ob *obs.Observer, l *layers) error {
	ctx := context.Background()
	hs := httpserver.New(httpserver.Config{
		RequestTimeout: 2 * time.Minute,
		Store:          objectrunner.StoreConfig{SpillDir: spill},
	})
	h := hs.Handler()
	defer func() { _ = hs.Shutdown(ctx) }()
	state := make(map[*source]*served)
	for _, in := range inputs {
		s := in.source
		if state[s] != nil {
			continue
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/wrap", bytes.NewReader(s.wrapBody)))
		if rec.Code != http.StatusOK {
			return fmt.Errorf("in-process wrap of %s: status %d", s.key, rec.Code)
		}
		ex, err := newExtractor(s)
		if err != nil {
			return err
		}
		svc := objectrunner.NewService(ex, objectrunner.StoreConfig{SpillDir: spill})
		outer, err := svc.Wrapper(ctx, s.key, s.gen.HTML)
		if err != nil {
			return fmt.Errorf("in-process service for %s: %w", s.key, err)
		}
		var buf bytes.Buffer
		if err := outer.Save(&buf); err != nil {
			return err
		}
		inner, err := wrapper.Decode(&buf, ex.SOD())
		if err != nil {
			return err
		}
		tab := symtab.New()
		template.InternDescs(inner.Template, tab)
		state[s] = &served{svc: svc, outer: outer, inner: inner, tab: tab}
	}
	pages := 0
	reqs := make([]apiv1.ExtractRequest, len(inputs))
	objs := make([][]*objectrunner.Object, len(inputs))
	for i, in := range inputs {
		pages += in.pages
		if err := json.Unmarshal(in.body, &reqs[i]); err != nil {
			return err
		}
		var err error
		if objs[i], err = state[in.source].svc.ServeExtract(ctx, reqs[i].Source, reqs[i].Pages); err != nil {
			return err
		}
	}
	perPage := float64(len(inputs)) / float64(pages)

	var buf bytes.Buffer
	serveHTTP := func(i int) error {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/extract", bytes.NewReader(inputs[i].body)))
		if rec.Code != http.StatusOK || !sameObjects(rec.Body.Bytes(), inputs[i].want) {
			return fmt.Errorf("in-process handler: status %d", rec.Code)
		}
		return nil
	}
	batch := func(i int) error {
		_, err := state[inputs[i].source].outer.ExtractStreamBatchContext(ctx, reqs[i].Pages)
		return err
	}
	// The bottom rungs run per page, with the wrapper-scoped symbol
	// table rebuilt from the template, each step timed on its own. The
	// untimed round passes an observer: it records a span per step and
	// checks the objects against ExtractStream.
	var arena eqclass.StreamArena
	scratch := template.NewScratch()
	var tok, match, rules time.Duration
	pageCalls, fallbacks := 0, 0
	bottom := func(i int, pob *obs.Observer) {
		st := state[inputs[i].source]
		w := st.inner
		key := &eqclass.StreamKey{Tag: w.BlockKey.Tag, Path: w.BlockKey.Path, AttrSig: w.BlockKey.AttrSig}
		for _, page := range reqs[i].Pages {
			sp := pob.Span("serve.tokenize")
			t0 := time.Now()
			toks, ok := eqclass.TokenizeLookupStream(&arena, st.tab, page, key, 0)
			t1 := time.Now()
			sp.End()
			if !ok {
				fallbacks++
				continue
			}
			sp = pob.Span("serve.match")
			got := template.ExtractAllStream(w.SOD, w.Matches, toks, scratch)
			t2 := time.Now()
			sp.End()
			sp = pob.Span("serve.rules")
			got, _ = w.SOD.FilterByRules(got)
			t3 := time.Now()
			sp.End()
			if pob.Enabled() {
				if want := w.ExtractStream(page); render(got) != render(want) {
					l.fail("serve ladder objects differ from ExtractStream on a page of %s", inputs[i].source.key)
				}
				continue
			}
			tok, match, rules = tok+t1.Sub(t0), match+t2.Sub(t1), rules+t3.Sub(t2)
			pageCalls++
		}
	}
	rungs := []struct {
		name string
		fn   func(i int) error
	}{
		{"serve.transport", func(i int) error {
			status, err := c.do(http.MethodPost, "/v1/extract", inputs[i].body, &buf)
			if err != nil || status != http.StatusOK || !sameObjects(buf.Bytes(), inputs[i].want) {
				return fmt.Errorf("loopback extract: status %d: %v", status, err)
			}
			return nil
		}},
		{"serve.handler", serveHTTP},
		{"serve.service", func(i int) error {
			_, err := state[inputs[i].source].svc.ServeExtract(ctx, reqs[i].Source, reqs[i].Pages)
			return err
		}},
		{"serve.extract_batch", batch},
		{"serve.pages", func(i int) error { bottom(i, nil); return nil }},
		{"serve.decode", func(i int) error {
			var req apiv1.ExtractRequest
			return json.NewDecoder(bytes.NewReader(inputs[i].body)).Decode(&req)
		}},
		{"serve.encode", func(i int) error {
			return json.NewEncoder(io.Discard).Encode(apiv1.ExtractResponse{
				Source: reqs[i].Source, Pages: len(reqs[i].Pages), Count: len(objs[i]),
				Objects: objectrunner.FlattenObjects(objs[i]),
			})
		}},
	}
	// An untimed round warms every rung, records a span per rung and
	// input, and checks the bottom rungs' objects against ExtractStream.
	for i := range inputs {
		for _, r := range rungs {
			sp := ob.Span(r.name, obs.A("req", i))
			var err error
			if r.name == "serve.pages" {
				bottom(i, sp.Observer())
			} else {
				err = r.fn(i)
			}
			sp.End()
			if err != nil {
				return fmt.Errorf("%s: %w", r.name, err)
			}
		}
	}
	// The rungs then take turns, one short pass over the inputs each, so
	// a slow drift of the machine lands on all of them alike. A rung's
	// cost is the median of its pass means.
	means := make([]dist, len(rungs))
	for start := time.Now(); time.Since(start) < ladderTime; {
		for k, r := range rungs {
			t0 := time.Now()
			for i := range inputs {
				if err := r.fn(i); err != nil {
					return fmt.Errorf("%s: %w", r.name, err)
				}
			}
			means[k].add(float64(time.Since(t0)) / float64(time.Microsecond) / float64(len(inputs)))
		}
	}
	if fallbacks > 0 {
		fmt.Fprintf(l.log, "orbench: serve ladder: %d page calls fell back to the tree path\n", fallbacks)
	}
	us := func(k int) float64 { return means[k].pct(50) }
	perPageCall := func(d time.Duration) float64 {
		return float64(d) / float64(time.Microsecond) / float64(max(pageCalls, 1))
	}
	l.set("serve.transport_us", us(0)-us(1))
	l.set("serve.envelope_us", us(1)-us(2))
	l.set("serve.store_us", us(2)-us(3))
	l.set("serve.extract_us_per_page", us(3)*perPage)
	l.set("serve.tokenize_us_per_page", perPageCall(tok))
	l.set("serve.match_us_per_page", perPageCall(match))
	l.set("serve.rules_us_per_page", perPageCall(rules))
	l.set("serve.decode_us", us(5))
	l.set("serve.encode_us", us(6))
	l.set("serve.handler_allocs", allocsPerCall(len(inputs), serveHTTP))
	l.set("serve.extract_allocs_per_page", allocsPerCall(len(inputs), batch)*perPage)
	return nil
}

// allocsPerCall returns the heap allocations of one pass over the
// inputs, per call.
func allocsPerCall(n int, fn func(i int) error) float64 {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	for i := 0; i < n; i++ {
		_ = fn(i) // the timed rung already checked every call
	}
	runtime.ReadMemStats(&b)
	return float64(b.Mallocs-a.Mallocs) / float64(n)
}

func render(objs []*sod.Instance) string {
	parts := make([]string, len(objs))
	for i, o := range objs {
		parts[i] = o.String()
	}
	return strings.Join(parts, "\n")
}

// newExtractor registers a source in-process exactly as
// httpserver.register does: static dictionaries in sorted class order,
// the default pipeline configuration, an observer attached.
func newExtractor(s *source) (*objectrunner.Extractor, error) {
	classes := make([]string, 0, len(s.dicts))
	for class := range s.dicts {
		classes = append(classes, class)
	}
	sort.Strings(classes)
	var opts []objectrunner.Option
	for _, class := range classes {
		entries := make([]objectrunner.Entry, 0, len(s.dicts[class]))
		for _, e := range s.dicts[class] {
			entries = append(entries, objectrunner.Entry{Value: e.Value, Confidence: e.Confidence})
		}
		opts = append(opts, objectrunner.WithDictionary(class, entries))
	}
	opts = append(opts, objectrunner.WithConfig(objectrunner.DefaultConfig()),
		objectrunner.WithObserver(objectrunner.NewObserver()))
	return objectrunner.New(s.dd.Spec.SODText, opts...)
}

// recognizers resolves the source's static dictionaries for the
// internal pipeline calls, as objectrunner.New does for the extractor.
func recognizers(s *source, st *sod.Type) (map[string]recognize.Recognizer, error) {
	static := make(recognize.StaticSource)
	for class, entries := range s.dicts {
		for _, e := range entries {
			static[class] = append(static[class], recognize.Entry{Value: e.Value, Confidence: e.Confidence})
		}
	}
	return recognize.NewRegistry(static).ResolveAll(st)
}

// wrapStages maps each wrap-stage metric to the span InferContext ends
// around that stage; pipeline.eqclass and pipeline.template end once per
// support tried.
var wrapStages = []struct{ metric, span string }{
	{"segment", "pipeline.segment"},
	{"annotate", "pipeline.annotate"},
	{"tokenize", "pipeline.tokenize"},
	{"eqbase", "pipeline.eqbase"},
	{"analyze", "pipeline.eqclass"},
	{"template", "pipeline.template"},
}

// spanMs is the total duration of every span of that name the observer
// has ended, in milliseconds.
func spanMs(ob *obs.Observer, name string) float64 {
	return float64(ob.Histogram("span."+name).Sum) / float64(time.Millisecond)
}

// wrapLadder registers, cleans and infers every source in-process, each
// step under a span of the source's wrap.ladder span, and reads the
// stage times from the spans InferContext records. Right before the
// in-process calls the daemon wraps the source again over HTTP, so that
// both timings see the shared machine in the same state.
func wrapLadder(c *client, srcs []*source, ob *obs.Observer, l *layers) error {
	ctx := context.Background()
	cfg := objectrunner.DefaultConfig()
	cfg.Normalize()
	var buf bytes.Buffer
	var worstGap float64
	worst := ""
	var allocs uint64
	var gcSecs, cpuSecs float64
	variations, sample, discarded := 0, 0, 0
	for i, s := range srcs {
		top := ob.Span("wrap.ladder", obs.A("req", i), obs.A("source", s.key))
		tob := top.Observer()
		// The daemon caches a discarded source's outcome as well, so the
		// delete is what makes every re-wrap infer again.
		l.res.Attempted++
		if status, err := c.do(http.MethodDelete, sourcePath(s.key), nil, &buf); err != nil || status != http.StatusNoContent {
			l.res.Failed++
		}
		want := http.StatusOK
		if s.discarded {
			want = http.StatusUnprocessableEntity
		}
		l.res.Attempted++
		sp := tob.Span("wrap.http")
		status, err := c.do(http.MethodPost, "/v1/wrap", s.wrapBody, &buf)
		sp.End()
		if err != nil || status != want {
			l.res.Failed++
		}

		sp = tob.Span("wrap.register")
		ex, err := newExtractor(s)
		sp.End()
		if err != nil {
			return err
		}
		parsed := make([]*dom.Node, len(s.gen.HTML))
		sp = tob.Span("wrap.clean")
		err = parallel.ForEachCtx(ctx, cfg.Workers, len(parsed), func(i int) { parsed[i] = clean.Page(s.gen.HTML[i]) })
		sp.End()
		if err != nil {
			return err
		}
		recs, err := recognizers(s, ex.SOD())
		if err != nil {
			return err
		}
		// Each inference starts from a collected heap, so it does not pay
		// for the previous source's garbage.
		runtime.GC()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		gc0 := gcCPU()
		infer0, stages0 := spanMs(ob, "pipeline.infer"), stagesMs(ob)
		cfg.Obs = tob
		w, err := wrapper.InferContext(ctx, parsed, ex.SOD(), recs, nil, cfg)
		gc1 := gcCPU()
		runtime.ReadMemStats(&m1)
		top.End()
		if err != nil {
			return err
		}
		allocs += m1.Mallocs - m0.Mallocs
		gcSecs += gc1.gc - gc0.gc
		cpuSecs += gc1.total - gc0.total
		// The stages and the whole call come from the same run, so their
		// difference is InferContext's own glue between stages.
		infer := spanMs(ob, "pipeline.infer") - infer0
		if gap := math.Abs(infer-(stagesMs(ob)-stages0)) / infer; gap > worstGap {
			worstGap, worst = gap, s.key
		}
		if w.Aborted {
			discarded++
		}
		variations += len(w.Report.Variations)
		sample += w.Report.SampleSize
	}
	register, cleanMs, infer := spanMs(ob, "wrap.register"), spanMs(ob, "wrap.clean"), spanMs(ob, "pipeline.infer")
	l.set("wrap.register_ms", register)
	l.set("wrap.clean_ms", cleanMs)
	l.set("wrap.infer_ms", infer)
	l.set("wrap.envelope_ms", spanMs(ob, "wrap.http")-register-cleanMs-infer)
	for _, st := range wrapStages {
		d := spanMs(ob, st.span)
		l.set("wrap."+st.metric+"_ms", d)
		l.set("wrap."+st.metric+"_share", d/infer)
	}
	l.set("wrap.allocs_per_source", float64(allocs)/float64(len(srcs)))
	l.set("wrap.gc_cpu_fraction", gcSecs/cpuSecs)
	l.set("wrap.variations", float64(variations))
	l.set("wrap.sample_pages", float64(sample))
	l.set("wrap.discarded", float64(discarded))
	fmt.Fprintf(l.log, "orbench: wrap ladder: stages cover %.1f%% of InferContext; largest per-source gap %.1f%% (%s)\n",
		100*(stagesMs(ob))/infer, 100*worstGap, worst)
	return nil
}

// stagesMs is the summed duration of every wrap stage span so far.
func stagesMs(ob *obs.Observer) float64 {
	sum := 0.0
	for _, st := range wrapStages {
		sum += spanMs(ob, st.span)
	}
	return sum
}

type gcSample struct{ gc, total float64 }

// gcCPU reads the runtime's estimates of CPU seconds spent in GC and in
// total.
func gcCPU() gcSample {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	return gcSample{gc: s[0].Value.Float64(), total: s[1].Value.Float64()}
}
