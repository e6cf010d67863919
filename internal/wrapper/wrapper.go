// Package wrapper orchestrates the full ObjectRunner targeted-extraction
// pipeline (paper §III): pre-processing and segmentation, recognizer
// set-up, annotation and sample selection (Algorithm 1), wrapper
// generation over equivalence classes (Algorithm 2) with early stopping
// (§III.E), SOD matching, extraction, the self-validating parameter
// variation loop (§IV, "automatic variation of parameters"), and
// dictionary enrichment (Eq. 4).
package wrapper

import (
	"context"
	"fmt"

	"objectrunner/internal/annotate"
	"objectrunner/internal/dom"
	"objectrunner/internal/eqclass"
	"objectrunner/internal/obs"
	"objectrunner/internal/parallel"
	"objectrunner/internal/recognize"
	"objectrunner/internal/segment"
	"objectrunner/internal/sod"
	"objectrunner/internal/symtab"
	"objectrunner/internal/template"
)

// Config tunes the pipeline. The zero value is completed with the paper's
// defaults by Normalize.
type Config struct {
	// Sample configures Algorithm 1 (sample size k, alpha, shrink).
	Sample annotate.Params
	// EQ configures Algorithm 2 (support, annotation threshold).
	EQ eqclass.Params
	// SupportMin and SupportMax bound the automatic support variation
	// (3 to 5 in the paper). The loop re-executes wrapper generation with
	// the next support value while conflicts remain.
	SupportMin, SupportMax int
	// UseSegmentation enables the VIPS-style central-block scoping.
	UseSegmentation bool
	// Segment configures the block selection heuristic.
	Segment segment.Options
	// RandomSample switches Algorithm 1 off and samples pages uniformly
	// (the baseline of Table II).
	RandomSample bool
	// RandomSeed drives the baseline sampler.
	RandomSeed uint64
	// Workers bounds the worker pool of the per-page pipeline stages
	// (cleaning, segmentation, annotation, tokenization, extraction).
	// 0 (the default) means one worker per available CPU
	// (runtime.GOMAXPROCS(0)); 1 forces the sequential path. Results are
	// always merged in stable input order, so output is byte-identical
	// across worker counts.
	Workers int
	// Obs receives spans, events and metrics from every pipeline stage.
	// Nil (the default) disables observation at near-zero cost.
	Obs *obs.Observer

	// inferOnCaller runs every inference stage on the calling goroutine;
	// Workers then bounds extraction only (see InferOnCaller).
	inferOnCaller bool
}

// InferOnCaller returns c set to run wrapper inference — cleaning,
// segmentation, annotation, tokenization and Algorithm 2 — on the
// calling goroutine, while Workers keeps bounding extraction. It is for
// a server that wraps beside the requests it serves: there, concurrent
// requests already occupy the CPUs, and a wrap that fanned out would
// only take them from its neighbours (DESIGN §9). Output is the same at
// any worker count.
func InferOnCaller(c Config) Config {
	c.inferOnCaller = true
	return c
}

// InferWorkers returns the fan-out of c's inference stages: 1 under
// InferOnCaller, Workers resolved otherwise.
func InferWorkers(c Config) int {
	if c.inferOnCaller {
		return 1
	}
	return parallel.Workers(c.Workers)
}

// DefaultConfig mirrors the paper's experimental setup.
func DefaultConfig() Config {
	return Config{
		Sample:          annotate.DefaultParams(),
		EQ:              eqclass.DefaultParams(),
		SupportMin:      3,
		SupportMax:      5,
		UseSegmentation: true,
		Segment:         segment.DefaultOptions(),
	}
}

// Normalize fills unset fields with defaults.
func (c *Config) Normalize() {
	d := DefaultConfig()
	if c.Sample.SampleSize == 0 {
		c.Sample = d.Sample
	}
	if c.EQ.MaxIter == 0 {
		c.EQ = d.EQ
	}
	if c.SupportMin == 0 {
		c.SupportMin = d.SupportMin
	}
	if c.SupportMax < c.SupportMin {
		c.SupportMax = c.SupportMin
	}
	c.Workers = parallel.Workers(c.Workers)
	// The per-stage configs inherit the inference pool size unless set
	// explicitly; InferOnCaller overrides them all.
	iw := InferWorkers(*c)
	if c.Sample.Workers == 0 || c.inferOnCaller {
		c.Sample.Workers = iw
	}
	if c.Segment.Workers == 0 || c.inferOnCaller {
		c.Segment.Workers = iw
	}
	if c.EQ.Workers == 0 || c.inferOnCaller {
		c.EQ.Workers = iw
	}
}

// Wrapper is an inferred extraction template for one source, applicable
// to any page of that source.
type Wrapper struct {
	SOD      *sod.Type
	Template *template.Template
	Matches  []*template.Match
	// Conflicts is the conflicting-annotation count of the chosen run
	// (the wrapper quality estimate).
	Conflicts int
	// Support is the support value the variation loop settled on.
	Support int
	// BlockKey re-identifies the source's central block on unseen pages.
	BlockKey segment.Key
	// Aborted reports that the source was discarded, with the reason.
	Aborted     bool
	AbortReason string
	// Report is the EXPLAIN-style account of the inference run; it is
	// populated even when the wrapper aborted.
	Report *Report

	useSegmentation bool
	workers         int
	obs             *obs.Observer
	// tab is the wrapper-scoped symbol table: exactly the template
	// descriptors' Value and Path strings, interned in template walk
	// order. Extraction resolves unseen pages' tokens against it
	// read-only; tokens outside the template vocabulary map to
	// symtab.None and can never match a descriptor.
	tab *symtab.Table
}

// Score is the wrapper quality estimate in [0, 1]: 1 for a wrapper built
// with no conflicting annotations, decaying with the conflict count.
func (w *Wrapper) Score() float64 {
	return 1 / (1 + float64(w.Conflicts))
}

// Infer runs the pipeline over a source's pages (parsed and cleaned DOM
// trees) and returns the wrapper. It never fails hard: sources that do
// not carry the targeted data come back with Aborted set.
func Infer(pages []*dom.Node, s *sod.Type, recs map[string]recognize.Recognizer, tf annotate.TermFreq, cfg Config) *Wrapper {
	w, _ := InferContext(context.Background(), pages, s, recs, tf, cfg)
	return w
}

// InferContext is Infer honoring cancellation: the per-page fan-outs stop
// dispatching once ctx is canceled, the support-variation loop checks ctx
// between iterations, and the context error comes back with a nil wrapper.
// A nil error with an Aborted wrapper still means "source discarded" — the
// two failure modes stay distinct.
func InferContext(ctx context.Context, pages []*dom.Node, s *sod.Type, recs map[string]recognize.Recognizer, tf annotate.TermFreq, cfg Config) (*Wrapper, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	cfg.Normalize()
	ob := cfg.Obs
	w := &Wrapper{SOD: s, useSegmentation: cfg.UseSegmentation, workers: cfg.Workers, obs: ob,
		Report: &Report{Pages: len(pages), Segmentation: cfg.UseSegmentation}}
	sp := ob.Span("pipeline.infer", obs.A("pages", len(pages)))
	defer sp.End()
	ob = sp.Observer()
	if len(pages) == 0 {
		w.abortObserved(ob, "infer", "no pages")
		return w, nil
	}

	// Pre-processing: central-block scoping (VIPS-style).
	regions := pages
	if cfg.UseSegmentation {
		segSpan := ob.Span("pipeline.segment", obs.A("pages", len(pages)))
		var err error
		regions, err = segment.SelectMainCtx(ctx, pages, cfg.Segment, segSpan.Observer())
		if err != nil {
			segSpan.End(obs.A("canceled", true))
			return nil, err
		}
		w.BlockKey = segment.KeyOf(regions[0])
		w.Report.BlockTag, w.Report.BlockPath = w.BlockKey.Tag, w.BlockKey.Path
		segSpan.End(obs.A("block_tag", w.BlockKey.Tag), obs.A("block_path", w.BlockKey.Path))
	}

	// Annotation and sample selection (Algorithm 1 or the random
	// baseline). The effective sample stays well below the page pool —
	// the paper samples k≈20 of ~50 crawled pages — so that selection
	// has room to skip off-template pages.
	sampleCfg := cfg.Sample
	if cap := 3 * len(regions) / 5; sampleCfg.SampleSize > cap {
		sampleCfg.SampleSize = cap
		if sampleCfg.SampleSize < 4 {
			sampleCfg.SampleSize = 4
		}
		// The floor of 4 exists so mid-sized pools keep enough sample to
		// vote on; on tiny corpora it must not push the sample past the
		// page pool itself.
		if sampleCfg.SampleSize > len(regions) {
			sampleCfg.SampleSize = len(regions)
		}
	}
	annSpan := ob.Span("pipeline.annotate",
		obs.A("pages", len(regions)), obs.A("k", sampleCfg.SampleSize), obs.A("random", cfg.RandomSample))
	var res *annotate.Result
	if cfg.RandomSample {
		res = annotate.SelectRandom(regions, recs, sampleCfg.SampleSize, cfg.RandomSeed)
	} else {
		var err error
		res, err = annotate.SelectSampleCtx(ctx, regions, s, recs, tf, sampleCfg, annSpan.Observer())
		if err != nil {
			annSpan.End(obs.A("canceled", true))
			return nil, err
		}
	}
	annSpan.End(obs.A("sample", len(res.Sample)), obs.A("aborted", res.Aborted))
	w.Report.TypeOrder = res.TypeOrder
	w.Report.SampleSize = len(res.Sample)
	if res.Aborted {
		w.abortObserved(ob, "annotate", res.AbortReason)
		return w, nil
	}
	if len(res.Sample) == 0 {
		w.abortObserved(ob, "annotate", "empty sample")
		return w, nil
	}

	// The entity types that are annotated somewhere in the sample; used
	// by the partial-matching early-stop test.
	annotatedTypes := make(map[string]bool)
	for _, e := range s.EntityTypes() {
		for _, pa := range res.Sample {
			if pa.CountType(e.Name) > 0 {
				annotatedTypes[e.Name] = true
				w.Report.AnnotatedTypes = append(w.Report.AnnotatedTypes, e.Name)
				break
			}
		}
	}

	// Fused tokenize→intern. Each worker owns a contiguous chunk of the
	// sample and runs tokenization and interning for its pages against a
	// worker-local symbol table — no barrier between the stages and no
	// cross-worker lock traffic. The local tables are then merged into
	// the canonical inference table in worker order: contiguous chunks +
	// left-to-right merge reproduce exactly the symbol numbering a single
	// sequential page-then-token pass would assign (see symtab.Merge), so
	// symbol ids — and all downstream analysis, reports and serialized
	// wrappers — stay byte-identical at any worker count. Finally each
	// chunk rewrites its occurrences to the canonical numbering; chunk 0
	// merges into an empty table, so its remap is always the identity and
	// the pass is skipped.
	sample := make([][]*eqclass.Occurrence, len(res.Sample))
	tokWorkers := InferWorkers(cfg)
	tokSpan := ob.Span("pipeline.tokenize",
		obs.A("pages", len(res.Sample)), obs.A("workers", tokWorkers))
	locals, err := parallel.MapWorkersCtx(ctx, tokWorkers, len(res.Sample),
		func(ctx context.Context, _ int, c parallel.Chunk) (*symtab.Table, error) {
			lt := symtab.New()
			for i := c.Lo; i < c.Hi; i++ {
				if err := ctx.Err(); err != nil {
					return nil, err
				}
				pa := res.Sample[i]
				sample[i] = eqclass.TokenizeInternPage(lt, pa.Page, pa, i)
			}
			return lt, nil
		})
	if err != nil {
		tokSpan.End(obs.A("canceled", true))
		return nil, err
	}
	// One chunk's table is already canonical: merging it into an empty
	// table would only copy it.
	tab := locals[0]
	remaps := make([][]symtab.Sym, len(locals))
	if len(locals) > 1 {
		tab = symtab.New()
		for i, lt := range locals {
			remaps[i] = tab.Merge(lt)
		}
	}
	if _, err := parallel.MapWorkersCtx(ctx, tokWorkers, len(sample),
		func(_ context.Context, worker int, c parallel.Chunk) (struct{}, error) {
			// Chunks(workers, n) is deterministic, so this fan-out sees the
			// same ranges the tokenize fan-out produced local tables for.
			if symtab.IdentityRemap(remaps[worker]) {
				return struct{}{}, nil
			}
			for i := c.Lo; i < c.Hi; i++ {
				eqclass.RemapSyms(remaps[worker], sample[i])
			}
			return struct{}{}, nil
		}); err != nil {
		tokSpan.End(obs.A("canceled", true))
		return nil, err
	}
	tokSpan.End(obs.A("symbols", tab.Len()))

	// The shared analysis base: interning, criterion-i role assignment
	// and first-round class validation run once per corpus; every support
	// variation below resumes from this snapshot (DESIGN §16).
	baseSpan := ob.Span("pipeline.eqbase",
		obs.A("pages", len(sample)), obs.A("workers", cfg.EQ.Workers))
	basep := cfg.EQ
	basep.Support = cfg.SupportMin
	base := eqclass.NewBase(sample, basep, baseSpan.Observer(), tab)
	baseSpan.End(obs.A("roles", base.Roles()), obs.A("groups", base.Groups()))

	// Wrapper generation with automatic support variation: re-execute
	// with the next support value while the quality estimate (conflict
	// count) can improve; keep the best run.
	var best *run
	bestVar := -1
	for support := cfg.SupportMin; support <= cfg.SupportMax; support++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		p := cfg.EQ
		p.Support = support
		varSpan := ob.Span("pipeline.variation", obs.A("support", support))
		vob := varSpan.Observer()
		// Early stopping (§III.E): abort the iteration when no partial
		// match of the SOD into the current template tree remains
		// possible. The hook doubles as the cancellation checkpoint inside
		// the analysis loop — a canceled ctx stops the iteration, and the
		// ctx check after the analysis turns that into the context error.
		hook := func(an *eqclass.Analysis) bool {
			if ctx.Err() != nil {
				return false
			}
			return template.PartialMatchPossible(s, an, annotatedTypes)
		}
		eqSpan := vob.Span("pipeline.eqclass", obs.A("support", support))
		an := base.Analyze(p, hook, eqSpan.Observer())
		eqSpan.End(obs.A("eqs", len(an.EQs)), obs.A("conflicts", an.Conflicts),
			obs.A("iterations", an.Iterations), obs.A("capped", an.Capped))
		if err := ctx.Err(); err != nil {
			varSpan.End(obs.A("canceled", true))
			return nil, err
		}
		tmplSpan := vob.Span("pipeline.template")
		tmpl := template.Build(an)
		matches := tmpl.MatchSOD(s)
		tmplSpan.End(obs.A("matches", len(matches)))
		r := &run{analysis: an, tmpl: tmpl, matches: matches, support: support}
		v := Variation{
			Support: support, Conflicts: an.Conflicts, Matches: len(matches),
			EQs: len(an.EQs), Iterations: an.Iterations, Capped: an.Capped,
		}
		switch {
		case len(matches) == 0:
			v.Reason = "SOD found no complete match in the template"
		case better(r, best):
			v.Reason = "best run so far"
		default:
			v.Reason = fmt.Sprintf("no improvement over support=%d", best.support)
		}
		if better(r, best) {
			if bestVar >= 0 {
				prev := &w.Report.Variations[bestVar]
				prev.Accepted = false
				prev.Reason = fmt.Sprintf("superseded by support=%d", support)
			}
			best = r
			v.Accepted = true
			bestVar = len(w.Report.Variations)
		}
		w.Report.Variations = append(w.Report.Variations, v)
		ob.Count("wrapper.variations", 1)
		varSpan.End(obs.A("conflicts", an.Conflicts), obs.A("matches", len(matches)),
			obs.A("accepted", v.Accepted), obs.A("reason", v.Reason))
		if len(matches) > 0 && an.Conflicts == 0 {
			break // nothing left to improve
		}
	}
	if best == nil || len(best.matches) == 0 {
		if best != nil {
			w.Conflicts = best.analysis.Conflicts
		}
		// No variation survives a match failure: none was truly accepted.
		for i := range w.Report.Variations {
			w.Report.Variations[i].Accepted = false
		}
		w.abortObserved(ob, "match", "SOD cannot be matched against the inferred template")
		return w, nil
	}
	w.Template = best.tmpl
	w.Matches = best.matches
	// Re-intern the accepted template into a compact wrapper-scoped table:
	// the inference table carries the whole sample vocabulary plus
	// annotation labels, while serving only ever resolves the template
	// descriptors. The walk order matches Encode's, so a wrapper saves to
	// the same bytes whether it was inferred or loaded.
	w.tab = symtab.New()
	template.InternDescs(w.Template, w.tab)
	w.Conflicts = best.analysis.Conflicts
	w.Support = best.support
	w.Report.ChosenSupport = best.support
	w.Report.Conflicts = w.Conflicts
	w.Report.Matches = len(w.Matches)
	sp.Event("wrapper.accepted", obs.A("support", w.Support),
		obs.A("conflicts", w.Conflicts), obs.A("matches", len(w.Matches)))
	return w, nil
}

// abortObserved records an abort on the wrapper, its report, and the
// observability layer (event + per-stage counter).
func (w *Wrapper) abortObserved(ob *obs.Observer, stage, reason string) {
	w.abort(stage, reason)
	ob.Count("wrapper.aborts", 1)
	ob.Count("wrapper.aborts."+stage, 1)
	ob.Event("wrapper.abort", obs.A("stage", stage), obs.A("reason", reason))
}

// better ranks runs: having matches beats not; fewer conflicts beats
// more; lower support (larger template vocabulary) breaks ties.
func better(a, b *run) bool {
	if b == nil {
		return true
	}
	am, bm := len(a.matches) > 0, len(b.matches) > 0
	if am != bm {
		return am
	}
	if a.analysis.Conflicts != b.analysis.Conflicts {
		return a.analysis.Conflicts < b.analysis.Conflicts
	}
	return false
}

// run is one wrapper-generation attempt of the variation loop.
type run struct {
	analysis *eqclass.Analysis
	tmpl     *template.Template
	matches  []*template.Match
	support  int
}

// ExtractPage applies the wrapper to one page (parsed, cleaned) and
// returns the extracted objects. The page is scoped to the source's
// central block first when segmentation was used at inference time.
func (w *Wrapper) ExtractPage(page *dom.Node) []*sod.Instance {
	if w == nil {
		return nil
	}
	return w.extractPageObserved(page, w.obs)
}

// extractPageObserved is ExtractPage reporting to the given observer —
// the wrapper's own for single-page calls, a worker-scoped one when a
// streamed page of a batch falls back to the tree path.
func (w *Wrapper) extractPageObserved(page *dom.Node, ob *obs.Observer) []*sod.Instance {
	if w == nil || w.Aborted || w.Template == nil {
		return nil
	}
	sp := ob.Span("pipeline.extract")
	region := page
	if w.useSegmentation {
		if n := segment.FindByKey(page, w.BlockKey); n != nil {
			region = n
		}
	}
	toks := eqclass.TokenizeLookupPage(w.tab, region, 0)
	objs := template.ExtractAll(w.SOD, w.Matches, toks)
	// Enforce the SOD's additional restrictions (§II.A footnote 1).
	objs, dropped := w.SOD.FilterByRules(objs)
	ob.Count("extract.pages", 1)
	ob.Count("extract.objects", int64(len(objs)))
	ob.Count("extract.rule_dropped", int64(dropped))
	sp.End(obs.A("objects", len(objs)), obs.A("rule_dropped", dropped))
	return objs
}

// EnrichDictionariesObserved implements the dictionary-enrichment step
// (Eq. 4): values extracted for isInstanceOf types are added to their
// dictionaries with a confidence combining the wrapper score and the
// overlap between the extracted set and the existing dictionary. It
// reports each accepted and rejected term to the observer (nil-safe)
// and returns the number of new entries added.
func EnrichDictionariesObserved(reg *recognize.Registry, s *sod.Type, objects []*sod.Instance, wrapperScore float64, ob *obs.Observer) int {
	sp := ob.Span("pipeline.enrich", obs.A("objects", len(objects)), obs.A("wrapper_score", wrapperScore))
	ob = sp.Observer()
	added, rejected := 0, 0
	for _, e := range s.InstanceOfTypes() {
		dict, ok := reg.Dictionary(e.Recognizer)
		if !ok {
			continue
		}
		values := collectValues(objects, e.Name)
		if len(values) == 0 {
			continue
		}
		// Overlap term of Eq. 4: Σ_{D∩I} score(i,c) / count(I).
		overlap := 0.0
		for _, v := range values {
			if conf, ok := dict.Contains(v); ok {
				overlap += conf
			}
		}
		overlap /= float64(len(values))
		conf := 0.5*wrapperScore + 0.5*overlap
		for _, v := range values {
			if _, known := dict.Contains(v); known {
				rejected++
				ob.Event("enrich.known", obs.A("type", e.Name), obs.A("value", v))
				continue
			}
			dict.Add(v, conf)
			added++
			ob.Event("enrich.add", obs.A("type", e.Name), obs.A("value", v), obs.A("confidence", conf))
		}
	}
	ob.Count("enrich.added", int64(added))
	ob.Count("enrich.rejected", int64(rejected))
	sp.End(obs.A("added", added), obs.A("rejected", rejected))
	return added
}

// collectValues gathers every leaf value bound to the named entity type
// across the instance trees.
func collectValues(objects []*sod.Instance, typeName string) []string {
	var out []string
	seen := make(map[string]bool)
	var rec func(in *sod.Instance)
	rec = func(in *sod.Instance) {
		if in.Leaf() {
			if in.Type.Name == typeName && in.Value != "" && !seen[in.Value] {
				seen[in.Value] = true
				out = append(out, in.Value)
			}
			return
		}
		for _, c := range in.Children {
			rec(c)
		}
	}
	for _, o := range objects {
		rec(o)
	}
	return out
}

// Describe summarizes the wrapper for logs and CLI output.
func (w *Wrapper) Describe() string {
	if w.Aborted {
		return "aborted: " + w.AbortReason
	}
	return fmt.Sprintf("matches=%d support=%d conflicts=%d score=%.3f",
		len(w.Matches), w.Support, w.Conflicts, w.Score())
}
