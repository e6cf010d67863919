// Package obs is the pipeline-wide observability layer of ObjectRunner:
// hierarchical spans with durations and attributes, named counters and
// duration histograms, and pluggable sinks (JSONL trace, human-readable
// text via log/slog, in-memory for tests). It is stdlib-only and designed
// so that the disabled path — a nil *Observer, the default everywhere —
// costs a single pointer comparison per call site.
//
// Span taxonomy of the extraction pipeline (see DESIGN.md):
//
//	pipeline.clean      parsing + cleaning the raw pages
//	pipeline.segment    VIPS-style central-block selection
//	pipeline.annotate   Algorithm 1 (Eq. 3 scores, top-k, α-abort)
//	pipeline.infer      the whole wrapper-generation run
//	pipeline.tokenize   fused tokenize + intern of the sample
//	pipeline.eqbase     the shared Algorithm 2 base snapshot
//	pipeline.variation  one token-support value of the §IV loop
//	pipeline.eqclass    Algorithm 2 over the sample
//	pipeline.template   template construction + SOD matching
//	pipeline.extract    applying the wrapper to one parsed page
//	pipeline.extract_stream        applying the wrapper to one raw page
//	pipeline.extract_stream_batch  fan-out extraction over raw pages
//	pipeline.worker     one worker of a parallel stage
//	pipeline.enrich     dictionary enrichment (Eq. 4)
//	http.request        one daemon request
//
// Counter and histogram aggregation is goroutine-safe (a single mutex in
// metrics), sinks are required to be safe for concurrent use, and span
// ids come from an atomic counter — so spans, events and metrics may be
// recorded from any number of worker goroutines. Parallel stages start
// one "pipeline.worker" span per worker (see WorkerSpan); spans opened
// from a worker's derived observer parent under that worker's span, so
// traces keep their hierarchy even when pages interleave across workers.
// Event order between workers follows the actual interleaving — traces
// are timestamped diagnostics, not part of the pipeline's deterministic
// output surface (Report() and extraction results are).
//
// Usage:
//
//	ob := obs.New(obs.JSONL(f), obs.Text(os.Stderr))
//	sp := ob.Span("pipeline.infer", obs.A("pages", n))
//	defer sp.End()
//	inner := sp.Observer() // spans started from it nest under sp
package obs

import (
	"sync/atomic"
	"time"
)

// Attr is one key/value attribute attached to a span or event.
type Attr struct {
	Key   string
	Value any
}

// A builds an attribute.
func A(key string, value any) Attr { return Attr{Key: key, Value: value} }

// Event is one trace record delivered to sinks. Kind discriminates:
// "span_start" and "span_end" carry the span id (and, for ends, the
// duration); "event" is a point annotation inside the span identified by
// Span.
type Event struct {
	Kind   string        `json:"ev"`
	Time   time.Time     `json:"ts"`
	Span   int64         `json:"span"`
	Parent int64         `json:"parent,omitempty"`
	Name   string        `json:"name"`
	Dur    time.Duration `json:"dur,omitempty"`
	Attrs  []Attr        `json:"attrs,omitempty"`
}

// Sink receives trace events. Implementations must be safe for
// concurrent use.
type Sink interface {
	Emit(e Event)
}

// Observer is the handle threaded through the pipeline. A nil *Observer
// is valid and disables everything; derived observers (Span.Observer)
// share the same sinks and metrics but parent new spans differently.
type Observer struct {
	core *core
	cur  *Span
}

// core is the state shared by an observer and all its derivations.
type core struct {
	sinks []Sink
	ids   atomic.Int64
	met   metrics
	// base labels are appended to every counter and histogram series
	// (see SetBaseLabels). Written once before the observer is shared.
	base []Label
}

// New returns an enabled observer emitting to the given sinks. With no
// sinks the observer still collects counters and histograms.
func New(sinks ...Sink) *Observer {
	return &Observer{core: &core{sinks: sinks}}
}

// Enabled reports whether the observer records anything.
func (o *Observer) Enabled() bool { return o != nil && o.core != nil }

// SetBaseLabels sets labels appended to every counter and histogram
// series recorded through this observer and all its derivations (spans,
// worker observers) — the per-process identity labels of a multi-node
// deployment, e.g. obs.L("node", nodeID). Call once, before the
// observer is shared across goroutines; later metric series carry the
// labels in canonical sorted order like any other label.
func (o *Observer) SetBaseLabels(labels ...Label) {
	if !o.Enabled() {
		return
	}
	o.core.base = append([]Label(nil), labels...)
}

// withBase merges the core's base labels into a call's labels. The
// common case (no base labels) returns the input untouched.
func (c *core) withBase(labels []Label) []Label {
	if len(c.base) == 0 {
		return labels
	}
	merged := make([]Label, 0, len(labels)+len(c.base))
	merged = append(merged, labels...)
	return append(merged, c.base...)
}

func (c *core) emit(e Event) {
	for _, s := range c.sinks {
		s.Emit(e)
	}
}

// Span starts a span, parented to the span this observer was derived
// from (none for a root observer). It returns nil when disabled; all
// *Span methods are nil-safe.
func (o *Observer) Span(name string, attrs ...Attr) *Span {
	if !o.Enabled() {
		return nil
	}
	var parent int64
	if o.cur != nil {
		parent = o.cur.id
	}
	s := &Span{core: o.core, id: o.core.ids.Add(1), parent: parent, name: name, start: time.Now()}
	o.core.emit(Event{Kind: "span_start", Time: s.start, Span: s.id, Parent: parent, Name: name, Attrs: attrs})
	return s
}

// WorkerSpan starts the conventional per-worker span of a parallel
// stage ("pipeline.worker" with the worker's ordinal), parented like any
// span started from o. Work done under the returned span's Observer is
// attributed to that worker in the trace.
func (o *Observer) WorkerSpan(worker int) *Span {
	return o.Span("pipeline.worker", A("worker", worker))
}

// Event records a point annotation on the observer's current span (span
// id 0 — the trace root — for a root observer).
func (o *Observer) Event(name string, attrs ...Attr) {
	if !o.Enabled() {
		return
	}
	var span int64
	if o.cur != nil {
		span = o.cur.id
	}
	o.core.emit(Event{Kind: "event", Time: time.Now(), Span: span, Name: name, Attrs: attrs})
}

// Count adds delta to the named counter.
func (o *Observer) Count(name string, delta int64) {
	if !o.Enabled() {
		return
	}
	o.core.met.count(name, delta, o.core.withBase(nil))
}

// CountL adds delta to the labeled counter series. Same-name calls with
// different label sets are independent series; labels must stay
// low-cardinality (see Label).
func (o *Observer) CountL(name string, delta int64, labels ...Label) {
	if !o.Enabled() {
		return
	}
	o.core.met.count(name, delta, o.core.withBase(labels))
}

// Observe records one duration into the named histogram.
func (o *Observer) Observe(name string, d time.Duration) {
	if !o.Enabled() {
		return
	}
	o.core.met.observe(name, d, o.core.withBase(nil))
}

// ObserveL records one duration into the labeled histogram series.
func (o *Observer) ObserveL(name string, d time.Duration, labels ...Label) {
	if !o.Enabled() {
		return
	}
	o.core.met.observe(name, d, o.core.withBase(labels))
}

// Span is one interval of the trace. The zero of *Span (nil) is a valid
// no-op.
type Span struct {
	core   *core
	id     int64
	parent int64
	name   string
	start  time.Time
	ended  atomic.Bool
}

// Observer derives an observer whose spans and events nest under s. On a
// nil span it returns nil — still a valid disabled observer.
func (s *Span) Observer() *Observer {
	if s == nil {
		return nil
	}
	return &Observer{core: s.core, cur: s}
}

// Event records a point annotation inside the span.
func (s *Span) Event(name string, attrs ...Attr) {
	if s == nil {
		return
	}
	s.core.emit(Event{Kind: "event", Time: time.Now(), Span: s.id, Name: name, Attrs: attrs})
}

// CounterVec is a labeled counter family: the label names are bound
// once, each Add supplies the matching values. A nil vec (from a
// disabled observer) is a valid no-op.
type CounterVec struct {
	o     *Observer
	name  string
	names []string
}

// CounterVec binds a counter family with fixed label names.
func (o *Observer) CounterVec(name string, labelNames ...string) *CounterVec {
	if !o.Enabled() {
		return nil
	}
	return &CounterVec{o: o, name: name, names: labelNames}
}

// Add increments the series identified by the label values (paired with
// the vec's label names positionally; missing values render empty).
func (v *CounterVec) Add(delta int64, labelValues ...string) {
	if v == nil {
		return
	}
	v.o.CountL(v.name, delta, pairLabels(v.names, labelValues)...)
}

// HistVec is a labeled duration-histogram family, the histogram
// counterpart of CounterVec.
type HistVec struct {
	o     *Observer
	name  string
	names []string
}

// HistVec binds a histogram family with fixed label names.
func (o *Observer) HistVec(name string, labelNames ...string) *HistVec {
	if !o.Enabled() {
		return nil
	}
	return &HistVec{o: o, name: name, names: labelNames}
}

// Observe records one duration into the series identified by the label
// values.
func (v *HistVec) Observe(d time.Duration, labelValues ...string) {
	if v == nil {
		return
	}
	v.o.ObserveL(v.name, d, pairLabels(v.names, labelValues)...)
}

func pairLabels(names, values []string) []Label {
	ls := make([]Label, len(names))
	for i, n := range names {
		ls[i].Key = n
		if i < len(values) {
			ls[i].Value = values[i]
		}
	}
	return ls
}

// End closes the span, records its duration in the histogram named
// "span.<name>", and emits the trailing attributes. Ending twice is a
// no-op.
func (s *Span) End(attrs ...Attr) {
	if s == nil || !s.ended.CompareAndSwap(false, true) {
		return
	}
	now := time.Now()
	d := now.Sub(s.start)
	s.core.met.observe("span."+s.name, d, s.core.withBase(nil))
	s.core.emit(Event{Kind: "span_end", Time: now, Span: s.id, Parent: s.parent, Name: s.name, Dur: d, Attrs: attrs})
}
