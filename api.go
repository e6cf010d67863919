package objectrunner

import (
	"context"
	"fmt"

	"objectrunner/internal/clean"
	"objectrunner/internal/dom"
	"objectrunner/internal/obs"
	"objectrunner/internal/parallel"
	"objectrunner/internal/wrapper"
)

// Error-honest, context-aware API surface: the methods below tell "no
// data on this page" apart from "you called me on a dead wrapper" with
// sentinel errors (errors.go), and honor context cancellation down
// through the worker pools. Extraction has two forms: ExtractErr over a
// parsed page, and ExtractStreamBatchContext over raw HTML.

// canceledErr wraps a context error so that both errors.Is(err,
// ErrCanceled) and errors.Is(err, context.Canceled/DeadlineExceeded) hold.
func canceledErr(err error) error {
	return fmt.Errorf("%w: %w", ErrCanceled, err)
}

// abortedErr wraps ErrAborted with the pipeline's abort reason.
func abortedErr(reason string) error {
	return fmt.Errorf("%w: %s", ErrAborted, reason)
}

// WrapContext is Wrap honoring cancellation: once ctx is canceled the
// pipeline stops dispatching new per-page work (cleaning, segmentation,
// annotation, tokenization) and the support-variation loop ends at its
// next checkpoint; the returned error wraps ErrCanceled and the context's
// own error. A discarded source comes back as an aborted wrapper plus an
// error wrapping ErrAborted, exactly like Wrap.
func (e *Extractor) WrapContext(ctx context.Context, pages []string) (*Wrapper, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	workers := wrapper.InferWorkers(e.cfg)
	sp := e.obs.Span("pipeline.clean",
		obs.A("pages", len(pages)), obs.A("workers", workers))
	parsed := make([]*dom.Node, len(pages))
	if err := parallel.ForEachObservedCtx(ctx, sp.Observer(), workers, len(pages), func(_ *obs.Observer, i int) {
		parsed[i] = clean.Page(pages[i])
	}); err != nil {
		sp.End(obs.A("canceled", true))
		return nil, canceledErr(err)
	}
	e.obs.Count("clean.pages", int64(len(pages)))
	sp.End()
	return e.WrapParsedContext(ctx, parsed)
}

// WrapParsedContext is WrapParsed honoring cancellation (see WrapContext).
func (e *Extractor) WrapParsedContext(ctx context.Context, pages []*dom.Node) (*Wrapper, error) {
	w, err := wrapper.InferContext(ctx, pages, e.sod, e.recs, e.tf, e.cfg)
	if err != nil {
		return nil, canceledErr(err)
	}
	if w.Aborted {
		return &Wrapper{inner: w}, abortedErr(w.AbortReason)
	}
	return &Wrapper{inner: w}, nil
}

// RunContext is Run honoring cancellation: wrap the source, then extract
// every object from all its pages, stopping promptly when ctx is canceled.
func (e *Extractor) RunContext(ctx context.Context, pages []string) ([]*Object, error) {
	w, err := e.WrapContext(ctx, pages)
	if err != nil {
		return nil, err
	}
	per, err := w.ExtractStreamBatchContext(ctx, pages)
	if err != nil {
		return nil, err
	}
	var out []*Object
	for _, objs := range per {
		out = append(out, objs...)
	}
	return out, nil
}

// errIfUnusable returns the sentinel matching the wrapper's state, or nil
// when it can extract.
func (w *Wrapper) errIfUnusable() error {
	if w == nil || w.inner == nil {
		return ErrNoWrapper
	}
	if w.inner.Aborted {
		return abortedErr(w.inner.AbortReason)
	}
	return nil
}

// ExtractErr extracts the objects of one parsed page (ParsePage),
// distinguishing "no objects on this page" (empty slice, nil error) from
// "this wrapper cannot extract" (ErrNoWrapper for a wrapper that was
// never inferred, ErrAborted for a discarded source).
func (w *Wrapper) ExtractErr(page *dom.Node) ([]*Object, error) {
	if err := w.errIfUnusable(); err != nil {
		return nil, err
	}
	return w.inner.ExtractPage(page), nil
}

// ExtractStreamBatchContext extracts every raw HTML page, returning one
// object slice per input page in input order, with the error contract of
// ExtractErr. Extraction runs directly over each page's raw token stream
// — no DOM tree, no cleaning pass — with pooled per-worker scratch, and
// fans out across the extractor's workers. Pages whose structure the
// streaming tokenizer cannot faithfully reproduce fall back to the tree
// path per page, so the output is byte-identical to ExtractErr over
// ParsePage of each page. Once ctx is canceled no further page starts
// and the returned error wraps ErrCanceled.
func (w *Wrapper) ExtractStreamBatchContext(ctx context.Context, pages []string) ([][]*Object, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := w.errIfUnusable(); err != nil {
		return nil, err
	}
	out, err := w.inner.ExtractStreamBatchContext(ctx, pages)
	if err != nil {
		return nil, canceledErr(err)
	}
	return out, nil
}
