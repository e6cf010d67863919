package objectrunner

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"
)

func TestExtractErrSentinels(t *testing.T) {
	var nilW *Wrapper
	if _, err := nilW.ExtractErr(nil); !errors.Is(err, ErrNoWrapper) {
		t.Errorf("nil wrapper: err = %v, want ErrNoWrapper", err)
	}
	if _, err := (&Wrapper{}).ExtractErr(ParsePage("<html></html>")); !errors.Is(err, ErrNoWrapper) {
		t.Errorf("empty wrapper: err = %v, want ErrNoWrapper", err)
	}
	if _, err := (&Wrapper{}).ExtractStreamBatchContext(context.Background(), []string{"<html></html>"}); !errors.Is(err, ErrNoWrapper) {
		t.Errorf("batch on empty wrapper: err = %v, want ErrNoWrapper", err)
	}

	ex := concertExtractor(t)
	aborted, err := ex.Wrap([]string{
		"<html><body><p>about our company</p></body></html>",
		"<html><body><p>terms of service</p></body></html>",
	})
	if !errors.Is(err, ErrAborted) {
		t.Fatalf("wrap err = %v, want ErrAborted", err)
	}
	if _, err := aborted.ExtractErr(ParsePage("<html></html>")); !errors.Is(err, ErrAborted) {
		t.Errorf("aborted wrapper: err = %v, want ErrAborted", err)
	}
	if _, err := aborted.ExtractStreamBatchContext(context.Background(), []string{"<html></html>"}); !errors.Is(err, ErrAborted) {
		t.Errorf("batch on aborted wrapper: err = %v, want ErrAborted", err)
	}
	// The abort reason survives into the error text for humans.
	if _, err := aborted.ExtractErr(nil); err == nil || !strings.Contains(err.Error(), "discarded") {
		t.Errorf("abort error lost its reason: %v", err)
	}
}

// TestExtractErrFormsAgree pins the two public extract forms to each
// other: parsed-page and raw-HTML batch extraction of the same page must
// yield identical objects.
func TestExtractErrFormsAgree(t *testing.T) {
	ex := concertExtractor(t)
	w, err := ex.Wrap(concertPages())
	if err != nil {
		t.Fatal(err)
	}
	page := concertPages()[1]
	fromParsed, err := w.ExtractErr(ParsePage(page))
	if err != nil {
		t.Fatal(err)
	}
	if len(fromParsed) == 0 {
		t.Fatal("ExtractErr found no objects on a training page")
	}
	batches, err := w.ExtractStreamBatchContext(context.Background(), []string{page})
	if err != nil {
		t.Fatal(err)
	}
	if len(batches) != 1 {
		t.Fatalf("batch slots = %d, want 1", len(batches))
	}
	got := batches[0]
	if len(got) != len(fromParsed) {
		t.Fatalf("ExtractStreamBatchContext found %d objects, ExtractErr found %d", len(got), len(fromParsed))
	}
	for i := range got {
		if got[i].String() != fromParsed[i].String() {
			t.Errorf("object %d differs: %s vs %s", i, got[i], fromParsed[i])
		}
	}
}

func TestWrapContextPreCanceled(t *testing.T) {
	ex := concertExtractor(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := ex.WrapContext(ctx, concertPages()); !errors.Is(err, ErrCanceled) {
		t.Errorf("err = %v, want ErrCanceled", err)
	} else if !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, must also wrap context.Canceled", err)
	}
}

func TestWrapContextCanceledMidFlightReturnsPromptly(t *testing.T) {
	ex := concertExtractor(t)
	// A large page pool keeps the pipeline busy long enough for the
	// cancellation to land mid-flight; the return must then be bounded by
	// the in-flight work (one page per worker), not by the remaining pool.
	pages := make([]string, 0, 40*len(concertPages()))
	for i := 0; i < 40; i++ {
		pages = append(pages, concertPages()...)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	start := time.Now()
	go func() {
		_, err := ex.WrapContext(ctx, pages)
		done <- err
	}()
	time.Sleep(2 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if err != nil && !errors.Is(err, ErrCanceled) {
			t.Errorf("err = %v, want ErrCanceled or nil (finished first)", err)
		}
		if elapsed := time.Since(start); elapsed > 20*time.Second {
			t.Errorf("cancellation took %v", elapsed)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("WrapContext did not return after cancellation")
	}
}

func TestExtractBatchContextCanceled(t *testing.T) {
	ex := concertExtractor(t)
	w, err := ex.Wrap(concertPages())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := w.ExtractStreamBatchContext(ctx, concertPages()); !errors.Is(err, ErrCanceled) {
		t.Errorf("err = %v, want ErrCanceled", err)
	}
}

func TestRunContextCanceled(t *testing.T) {
	ex := concertExtractor(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := ex.RunContext(ctx, concertPages()); !errors.Is(err, ErrCanceled) {
		t.Errorf("err = %v, want ErrCanceled", err)
	}
}

// TestRunContextMatchesWrapExtract pins the one-shot RunContext to its
// two-step decomposition: WrapContext followed by batch extraction over
// the same pages.
func TestRunContextMatchesWrapExtract(t *testing.T) {
	ex := concertExtractor(t)
	ctx := context.Background()
	got, err := ex.RunContext(ctx, concertPages())
	if err != nil {
		t.Fatal(err)
	}
	w, err := ex.WrapContext(ctx, concertPages())
	if err != nil {
		t.Fatal(err)
	}
	batches, err := w.ExtractStreamBatchContext(ctx, concertPages())
	if err != nil {
		t.Fatal(err)
	}
	var want []*Object
	for _, objs := range batches {
		want = append(want, objs...)
	}
	if len(got) != len(want) {
		t.Fatalf("RunContext found %d objects, wrap+extract found %d", len(got), len(want))
	}
	for i := range got {
		if got[i].String() != want[i].String() {
			t.Errorf("object %d differs: %s vs %s", i, got[i], want[i])
		}
	}
}
