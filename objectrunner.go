// Package objectrunner is a from-scratch reproduction of the ObjectRunner
// system ("Automatic Extraction of Structured Web Data with Domain
// Knowledge", ICDE 2012): targeted extraction of real-world objects from
// template-based HTML pages, guided by a user-supplied Structured Object
// Description (SOD).
//
// The extraction pipeline combines the pages' structural regularity
// (ExAlg-style equivalence classes over token occurrence vectors) with
// domain knowledge (entity-type recognizers — regular expressions,
// predefined types, and dictionaries built on the fly from a knowledge
// base or a text corpus). Only the data matching the SOD is extracted; no
// manual labeling or training pages are needed.
//
// Quick start:
//
//	ex, err := objectrunner.New(`tuple {
//		artist: instanceOf(Artist)
//		date: date
//		theater: instanceOf(Theater)
//	}`, objectrunner.WithDictionary("Artist", artists),
//		objectrunner.WithDictionary("Theater", theaters))
//	...
//	w, err := ex.Wrap(pages) // pages: []string of raw HTML
//	perPage, err := w.ExtractStreamBatchContext(ctx, newPages)
package objectrunner

import (
	"context"
	"fmt"
	"io"

	"objectrunner/internal/annotate"
	"objectrunner/internal/clean"
	"objectrunner/internal/corpus"
	"objectrunner/internal/dedup"
	"objectrunner/internal/dom"
	"objectrunner/internal/kb"
	"objectrunner/internal/obs"
	"objectrunner/internal/query"
	"objectrunner/internal/recognize"
	"objectrunner/internal/sod"
	"objectrunner/internal/wrapper"
)

// SOD is a Structured Object Description: the typing formalism describing
// the objects to harvest (tuples, sets with multiplicities, disjunctions
// over entity types).
type SOD = sod.Type

// Object is one extracted instance of the SOD.
type Object = sod.Instance

// Entry is a gazetteer instance with its confidence.
type Entry = recognize.Entry

// GazetteerSource supplies instances for open isInstanceOf entity types.
type GazetteerSource = recognize.GazetteerSource

// KnowledgeBase is a YAGO-style ontology usable as a gazetteer source,
// with semantic-neighborhood lookup.
type KnowledgeBase = kb.KB

// Corpus is a text corpus mined with Hearst patterns for gazetteer
// construction.
type Corpus = corpus.Corpus

// Config tunes the extraction pipeline (sample size, block threshold,
// token support range, segmentation).
type Config = wrapper.Config

// ParseSOD parses the SOD text DSL, e.g.
//
//	tuple { title: instanceOf(BookTitle), price: price,
//	        authors: set(author: instanceOf(Author))+ }
func ParseSOD(src string) (*SOD, error) { return sod.Parse(src) }

// NewKnowledgeBase returns an empty knowledge base. Assert facts with
// AddSubClass and AddInstance, then pass it via WithKnowledgeBase.
func NewKnowledgeBase() *KnowledgeBase { return kb.New() }

// NewCorpus returns an empty corpus. Add documents, then pass it via
// WithCorpus.
func NewCorpus() *Corpus { return corpus.New() }

// DefaultConfig mirrors the paper's experimental configuration.
func DefaultConfig() Config { return wrapper.DefaultConfig() }

// Observer is the observability handle of the extraction pipeline: it
// collects hierarchical spans, counters and duration histograms from
// every stage and forwards trace events to its sinks. A nil *Observer
// (the default) disables observation at near-zero cost.
type Observer = obs.Observer

// NewObserver builds an observer emitting to the given sinks (see
// TraceSink, LogSink). With no sinks it still aggregates counters and
// histograms, readable via Counters and Histograms.
func NewObserver(sinks ...obs.Sink) *Observer { return obs.New(sinks...) }

// TraceSink returns a sink writing a machine-readable JSONL trace (one
// event per line) — the format behind the CLIs' -trace flag.
func TraceSink(w io.Writer) obs.Sink { return obs.JSONL(w) }

// LogSink returns a human-readable sink built on log/slog — the format
// behind the CLIs' -v flag.
func LogSink(w io.Writer) obs.Sink { return obs.Text(w) }

// Extractor holds an SOD with its resolved recognizers and pipeline
// configuration, ready to wrap structured Web sources.
type Extractor struct {
	sod      *SOD
	registry *recognize.Registry
	recs     map[string]recognize.Recognizer
	tf       annotate.TermFreq
	cfg      Config
	obs      *Observer
}

// Option configures an Extractor.
type Option func(*options)

type options struct {
	sources []recognize.GazetteerSource
	static  recognize.StaticSource
	tf      annotate.TermFreq
	cfg     *Config
	obs     *Observer
}

// WithKnowledgeBase adds an ontology as a gazetteer source for
// isInstanceOf types (with semantic-neighborhood lookup) and as the term
// frequency provider for the selectivity estimates.
func WithKnowledgeBase(k *KnowledgeBase) Option {
	return func(o *options) {
		o.sources = append(o.sources, k)
		if o.tf == nil {
			o.tf = k
		}
	}
}

// WithCorpus adds a text corpus as a gazetteer source: instances are
// harvested with Hearst patterns and scored with the Str-ICNorm-Thresh
// metric. threshold drops candidates scoring below the given fraction of
// the best candidate (0 keeps everything).
func WithCorpus(c *Corpus, threshold float64) Option {
	return func(o *options) {
		o.sources = append(o.sources, corpus.Source{Corpus: c, Threshold: threshold})
		if o.tf == nil {
			o.tf = c
		}
	}
}

// WithDictionary supplies instances of a class directly.
func WithDictionary(class string, entries []Entry) Option {
	return func(o *options) {
		if o.static == nil {
			o.static = make(recognize.StaticSource)
		}
		o.static[class] = append(o.static[class], entries...)
	}
}

// WithGazetteerSource adds any custom gazetteer source.
func WithGazetteerSource(src GazetteerSource) Option {
	return func(o *options) { o.sources = append(o.sources, src) }
}

// WithConfig overrides the pipeline configuration.
func WithConfig(cfg Config) Option {
	return func(o *options) { o.cfg = &cfg }
}

// WithObserver attaches an observability handle to the extractor: every
// pipeline stage — cleaning, segmentation, annotation, equivalence-class
// analysis, the token-support variation loop, template matching,
// extraction and dictionary enrichment — emits spans, events, counters
// and duration histograms through it.
func WithObserver(ob *Observer) Option {
	return func(o *options) { o.obs = ob }
}

// New builds an Extractor for the SOD given in DSL form.
func New(sodText string, opts ...Option) (*Extractor, error) {
	s, err := sod.Parse(sodText)
	if err != nil {
		return nil, err
	}
	return NewFromSOD(s, opts...)
}

// NewFromSOD builds an Extractor for an already-constructed SOD.
func NewFromSOD(s *SOD, opts ...Option) (*Extractor, error) {
	var o options
	for _, opt := range opts {
		opt(&o)
	}
	srcs := o.sources
	if o.static != nil {
		srcs = append([]recognize.GazetteerSource{o.static}, srcs...)
	}
	reg := recognize.NewRegistry(srcs...)
	recs, err := reg.ResolveAll(s)
	if err != nil {
		return nil, fmt.Errorf("objectrunner: %w", err)
	}
	cfg := wrapper.DefaultConfig()
	if o.cfg != nil {
		cfg = *o.cfg
	}
	if o.obs != nil {
		cfg.Obs = o.obs
	}
	// Always normalize, so Workers (and the rest of the defaults) are
	// resolved even when no config option was given.
	cfg.Normalize()
	return &Extractor{sod: s, registry: reg, recs: recs, tf: o.tf, cfg: cfg, obs: cfg.Obs}, nil
}

// SOD returns the extractor's object description.
func (e *Extractor) SOD() *SOD { return e.sod }

// ParsePage parses and cleans one raw HTML page.
func ParsePage(html string) *dom.Node { return clean.Page(html) }

// Wrapper is an inferred extraction template for one source. Its methods
// are safe on a nil or aborted wrapper: extraction returns no objects and
// Report/Describe explain why.
type Wrapper struct {
	inner *wrapper.Wrapper
}

// Wrap infers a wrapper from a source's raw HTML pages (paper §III):
// annotation, SOD-guided sample selection, equivalence-class analysis
// with the automatic parameter-variation loop, and SOD matching. It is
// WrapContext with a background context. A discarded source comes back as
// an aborted wrapper plus an error wrapping ErrAborted, so Report can
// explain which stage gave up and why.
func (e *Extractor) Wrap(pages []string) (*Wrapper, error) {
	return e.WrapContext(context.Background(), pages)
}

// WrapParsed infers a wrapper from already parsed and cleaned pages. It is
// WrapParsedContext with a background context; see Wrap for the error
// contract.
func (e *Extractor) WrapParsed(pages []*dom.Node) (*Wrapper, error) {
	return e.WrapParsedContext(context.Background(), pages)
}

// ok reports whether the wrapper is usable for extraction.
func (w *Wrapper) ok() bool { return w != nil && w.inner != nil && !w.inner.Aborted }

// Score is the wrapper's self-estimated quality in (0, 1]: 1 means no
// conflicting annotations were observed while building it. An unusable
// wrapper scores 0.
func (w *Wrapper) Score() float64 {
	if !w.ok() {
		return 0
	}
	return w.inner.Score()
}

// Support is the token-support value the variation loop settled on (0 for
// a nil or aborted wrapper).
func (w *Wrapper) Support() int {
	if !w.ok() {
		return 0
	}
	return w.inner.Support
}

// Describe summarizes the wrapper.
func (w *Wrapper) Describe() string {
	if w == nil || w.inner == nil {
		return "no wrapper"
	}
	return w.inner.Describe()
}

// Report returns the EXPLAIN-style account of the inference run: the
// central-block choice, the selectivity order and sample of Algorithm 1,
// one line per token-support variation with its accept/reject reason, and
// — for discarded sources — the aborting stage and reason.
func (w *Wrapper) Report() string {
	if w == nil || w.inner == nil {
		return "no wrapper: inference was not run"
	}
	return w.inner.Report.String()
}

// Enrich feeds extracted objects back into the extractor's isInstanceOf
// dictionaries (paper Eq. 4), returning how many new instances were
// added. Use the wrapper's Score as the quality input.
func (e *Extractor) Enrich(objects []*Object, wrapperScore float64) int {
	return wrapper.EnrichDictionariesObserved(e.registry, e.sod, objects, wrapperScore, e.obs)
}

// Deduplicate removes exact duplicates among extracted objects
// (normalized-value identity), keeping first occurrences.
func Deduplicate(objects []*Object) []*Object {
	return dedup.Deduplicate(objects)
}

// MergeSources concatenates per-source extractions, removing cross-source
// duplicates; it returns the merged objects and the duplicate count.
func MergeSources(bySource [][]*Object) ([]*Object, int) {
	return dedup.MergeSources(bySource)
}

// SOD rules (paper §II.A footnote 1): additional restrictions attached to
// an SOD beyond the type structure. Attach with sod.AddRule; the wrapper
// drops extracted objects violating them, and whole-node rules restrict
// annotation to matches covering an HTML node's entire text.
type (
	// Rule validates one extracted instance.
	Rule = sod.Rule
	// ValueRule constrains a field's value with a predicate.
	ValueRule = sod.ValueRule
	// OrderRule requires two fields to stand in an order relationship.
	OrderRule = sod.OrderRule
	// ContainsRule requires (or forbids) a substring in a field's value.
	ContainsRule = sod.ContainsRule
	// WholeNodeRule restricts a type to whole-node matches.
	WholeNodeRule = sod.WholeNodeRule
)

// Querying extracted collections (the architecture's phase-two querying).
type (
	// Query is a fluent query over extracted objects.
	Query = query.Query
	// Predicate tests one object.
	Predicate = query.Predicate
)

// Over starts a query over extracted objects; combine with query
// predicates Eq, Contains, NumLess, NumAtLeast, And, Or, Not.
func Over(objects []*Object) *Query { return query.Over(objects) }

// Eq matches objects whose field equals v (normalized comparison).
func Eq(field, v string) Predicate { return query.Eq(field, v) }

// FieldContains matches objects whose field contains the needle.
func FieldContains(field, needle string) Predicate { return query.Contains(field, needle) }

// NumLess matches objects whose field holds a number below bound.
func NumLess(field string, bound float64) Predicate { return query.NumLess(field, bound) }

// NumAtLeast matches objects whose field holds a number >= bound.
func NumAtLeast(field string, bound float64) Predicate { return query.NumAtLeast(field, bound) }

// And combines predicates conjunctively.
func And(ps ...Predicate) Predicate { return query.And(ps...) }

// Or combines predicates disjunctively.
func Or(ps ...Predicate) Predicate { return query.Or(ps...) }

// Not inverts a predicate.
func Not(p Predicate) Predicate { return query.Not(p) }

// WithSeedInstances declares an isInstanceOf class by example: the seeds
// are expanded against the knowledge base passed with WithKnowledgeBase
// (the paper's §VI "Google sets" style type specification). The option
// must come after WithKnowledgeBase.
func WithSeedInstances(class string, seeds []string) Option {
	return func(o *options) {
		var base *kb.KB
		for _, src := range o.sources {
			if k, ok := src.(*kb.KB); ok {
				base = k
			}
		}
		if base == nil {
			base = kb.New()
		}
		o.sources = append(o.sources, kb.SeedSource{KB: base, Seeds: map[string][]string{class: seeds}})
	}
}

// SourceRank scores one candidate source for this extractor's SOD.
type SourceRank struct {
	// Index is the source's position in the RankSources input.
	Index int
	// Score is the average per-page minimum annotation score across the
	// SOD's entity types; 0 means some type never appears.
	Score float64
}

// RankSources orders candidate sources (each a slice of raw HTML pages)
// by how relevant and data-rich they look for the SOD, best first — the
// paper's §VI source-selection direction. Only a few pages per source are
// probed.
func (e *Extractor) RankSources(sources [][]string) []SourceRank {
	parsed := make([][]*dom.Node, len(sources))
	for i, pages := range sources {
		for _, h := range pages {
			parsed[i] = append(parsed[i], clean.Page(h))
		}
	}
	scored := annotate.RankSources(parsed, e.sod, e.recs, e.tf, 5)
	out := make([]SourceRank, len(scored))
	for i, s := range scored {
		out[i] = SourceRank{Index: s.Index, Score: s.Score}
	}
	return out
}
