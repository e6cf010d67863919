package objectrunner

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"testing"

	"objectrunner/internal/obs"
)

// observedConcertExtractor builds the running-example extractor with the
// given observer attached.
func observedConcertExtractor(t testing.TB, ob *Observer) *Extractor {
	t.Helper()
	ex, err := New(`tuple {
		artist: instanceOf(Artist)
		date: date
		location: tuple { theater: instanceOf(Theater), address: address ? }
	}`,
		WithObserver(ob),
		WithDictionary("Artist", []Entry{
			{Value: "Metallica", Confidence: 0.9}, {Value: "Madonna", Confidence: 0.95},
			{Value: "Muse", Confidence: 0.85}, {Value: "Coldplay", Confidence: 0.9},
		}),
		WithDictionary("Theater", []Entry{
			{Value: "Madison Square Garden", Confidence: 0.9}, {Value: "The Town Hall", Confidence: 0.8},
			{Value: "B.B King Blues and Grill", Confidence: 0.75}, {Value: "Bowery Ballroom", Confidence: 0.85},
		}),
	)
	if err != nil {
		t.Fatal(err)
	}
	return ex
}

// TestPipelineEmitsAllStageSpans runs the full pipeline over the paper's
// running example and asserts every stage announced itself to the observer.
func TestPipelineEmitsAllStageSpans(t *testing.T) {
	mem := obs.NewMemory()
	ob := NewObserver(mem)
	ex := observedConcertExtractor(t, ob)

	w, err := ex.Wrap(concertPages())
	if err != nil {
		t.Fatal(err)
	}
	objects := extractAll(t, w, concertPages())
	if len(objects) == 0 {
		t.Fatal("no objects extracted")
	}
	ex.Enrich(objects, w.Score())

	want := []string{
		"pipeline.clean",
		"pipeline.segment",
		"pipeline.annotate",
		"pipeline.infer",
		"pipeline.variation",
		"pipeline.eqclass",
		"pipeline.template",
		"pipeline.extract_stream",
		"pipeline.enrich",
	}
	got := map[string]bool{}
	for _, n := range mem.SpanNames() {
		got[n] = true
	}
	for _, n := range want {
		if !got[n] {
			t.Errorf("stage span %q was never started (saw %v)", n, mem.SpanNames())
		}
	}

	// Stage spans nest under the inference root span.
	var inferID int64
	for _, e := range mem.Events() {
		if e.Kind == "span_start" && e.Name == "pipeline.infer" {
			inferID = e.Span
		}
	}
	if inferID == 0 {
		t.Fatal("no pipeline.infer span")
	}
	for _, e := range mem.Events() {
		if e.Kind == "span_start" && (e.Name == "pipeline.segment" || e.Name == "pipeline.annotate" || e.Name == "pipeline.variation") {
			if e.Parent != inferID {
				t.Errorf("%s parented to span %d, want pipeline.infer %d", e.Name, e.Parent, inferID)
			}
		}
	}

	if ob.Counter("wrapper.variations") == 0 {
		t.Error("wrapper.variations counter never incremented")
	}
	if ob.Counter("extract.objects") == 0 {
		t.Error("extract.objects counter never incremented")
	}
}

// TestReportNamesChosenSupport checks the EXPLAIN report for a successful
// inference run.
func TestReportNamesChosenSupport(t *testing.T) {
	ex := concertExtractor(t)
	w, err := ex.Wrap(concertPages())
	if err != nil {
		t.Fatal(err)
	}
	rep := w.Report()
	if !strings.Contains(rep, "chosen: support=") {
		t.Errorf("report does not name the chosen support:\n%s", rep)
	}
	if !strings.Contains(rep, "variation support=") {
		t.Errorf("report does not list variations:\n%s", rep)
	}
}

// TestAbortedWrapperIsSafe verifies the nil/aborted guards: extraction
// yields nothing, Score is 0, and Report explains the abort.
func TestAbortedWrapperIsSafe(t *testing.T) {
	ex := concertExtractor(t)
	// Pages with no annotatable content abort during inference.
	blank := []string{"<html><body><p>nothing here</p></body></html>"}
	w, err := ex.Wrap(blank)
	if err == nil {
		t.Fatal("expected abort error for blank pages")
	}
	if w == nil {
		t.Fatal("aborted Wrap must still return the wrapper for Report")
	}
	if _, err := w.ExtractStreamBatchContext(context.Background(), concertPages()); !errors.Is(err, ErrAborted) {
		t.Errorf("aborted wrapper batch err = %v, want ErrAborted", err)
	}
	if w.Score() != 0 || w.Support() != 0 {
		t.Errorf("aborted wrapper Score=%v Support=%d, want zeros", w.Score(), w.Support())
	}
	rep := w.Report()
	if !strings.Contains(rep, "ABORTED") {
		t.Errorf("report does not mention the abort:\n%s", rep)
	}

	var nilW *Wrapper
	if objs, err := nilW.ExtractErr(nil); objs != nil || !errors.Is(err, ErrNoWrapper) {
		t.Errorf("nil wrapper ExtractErr = %v, %v; want nil, ErrNoWrapper", objs, err)
	}
	if nilW.Score() != 0 || nilW.Support() != 0 {
		t.Error("nil wrapper Score/Support must be zero")
	}
	if !strings.Contains(nilW.Report(), "no wrapper") {
		t.Errorf("nil wrapper report = %q", nilW.Report())
	}
	if nilW.Describe() != "no wrapper" {
		t.Errorf("nil wrapper describe = %q", nilW.Describe())
	}
}

// TestTraceSinkProducesJSONL exercises the public trace surface end to end.
func TestTraceSinkProducesJSONL(t *testing.T) {
	var buf bytes.Buffer
	ob := NewObserver(TraceSink(&buf))
	ex := observedConcertExtractor(t, ob)
	if _, err := ex.RunContext(context.Background(), concertPages()); err != nil {
		t.Fatal(err)
	}
	evs, err := obs.ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(evs) == 0 {
		t.Fatal("trace is empty")
	}
	seen := map[string]bool{}
	for _, e := range evs {
		if e.Kind == "span_start" {
			seen[e.Name] = true
		}
	}
	for _, n := range []string{"pipeline.clean", "pipeline.infer", "pipeline.extract_stream"} {
		if !seen[n] {
			t.Errorf("trace missing span %q", n)
		}
	}
}
