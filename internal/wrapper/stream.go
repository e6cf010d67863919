package wrapper

// This file implements the streaming serve path: extraction straight off
// the raw HTML token stream, with no DOM tree, no cleaning pass and no
// page copy. The streaming tokenizer (eqclass.TokenizeLookupStream)
// replays parsing, cleaning and block scoping in a single pass over the
// source and bails out — explicitly, never silently — on the structures
// it cannot reproduce; those pages take the tree path as a fallback, so
// the streaming path is always byte-identical to ExtractPage.

import (
	"context"
	"sync"

	"objectrunner/internal/clean"
	"objectrunner/internal/eqclass"
	"objectrunner/internal/obs"
	"objectrunner/internal/parallel"
	"objectrunner/internal/sod"
	"objectrunner/internal/template"
)

// streamScratch bundles the reusable per-extract state of the streaming
// path: the tokenizer arena, the template matcher scratch, and the block
// key in stream form. Pooled rather than per-wrapper so concurrent
// serves never contend and idle wrappers hold no arenas.
type streamScratch struct {
	arena   eqclass.StreamArena
	scratch *template.Scratch
	key     eqclass.StreamKey
}

var streamPool = sync.Pool{New: func() any {
	return &streamScratch{scratch: template.NewScratch()}
}}

// ExtractStream applies the wrapper to one page of raw HTML without
// materializing a DOM tree. Output is byte-identical to
// ExtractPage(clean.Page(src)): pages the fused tokenizer cannot
// faithfully reproduce fall back to that exact call.
func (w *Wrapper) ExtractStream(src string) []*sod.Instance {
	if w == nil {
		return nil
	}
	return w.extractStreamObserved(src, w.obs)
}

// extractStreamObserved is ExtractStream reporting to the given observer.
func (w *Wrapper) extractStreamObserved(src string, ob *obs.Observer) []*sod.Instance {
	if w == nil || w.Aborted || w.Template == nil {
		return nil
	}
	sp := ob.Span("pipeline.extract_stream")
	ss := streamPool.Get().(*streamScratch)
	var key *eqclass.StreamKey
	if w.useSegmentation {
		ss.key = eqclass.StreamKey{Tag: w.BlockKey.Tag, Path: w.BlockKey.Path, AttrSig: w.BlockKey.AttrSig}
		key = &ss.key
	}
	toks, ok := eqclass.TokenizeLookupStream(&ss.arena, w.tab, src, key, 0)
	if !ok {
		streamPool.Put(ss)
		ob.Count("extract.stream_fallback", 1)
		sp.End(obs.A("fallback", true))
		return w.extractPageObserved(clean.Page(src), ob)
	}
	objs := template.ExtractAllStream(w.SOD, w.Matches, toks, ss.scratch)
	// Enforce the SOD's additional restrictions (§II.A footnote 1).
	objs, dropped := w.SOD.FilterByRules(objs)
	// Instances hold copied strings only; the arena and scratch are free
	// to serve the next page.
	streamPool.Put(ss)
	ob.Count("extract.pages", 1)
	ob.Count("extract.objects", int64(len(objs)))
	ob.Count("extract.rule_dropped", int64(dropped))
	sp.End(obs.A("objects", len(objs)), obs.A("rule_dropped", dropped))
	return objs
}

// ExtractStreamBatchContext applies the wrapper to every raw page
// concurrently (bounded by the inference Config.Workers) and returns one
// object slice per input page, in input order; each page streams or
// falls back to the tree path on its own, as in ExtractStream.
// Extraction is read-only on the wrapper — the template, matches and
// block key are immutable after Infer — so pages are independent and the
// batch output is byte-identical to calling ExtractPage(clean.Page(p))
// in a loop. Once ctx is canceled no further page starts, and the
// context error comes back with a nil slice.
func (w *Wrapper) ExtractStreamBatchContext(ctx context.Context, pages []string) ([][]*sod.Instance, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	out := make([][]*sod.Instance, len(pages))
	if w == nil || w.Aborted || w.Template == nil || len(pages) == 0 {
		return out, ctx.Err()
	}
	sp := w.obs.Span("pipeline.extract_stream_batch",
		obs.A("pages", len(pages)), obs.A("workers", parallel.Workers(w.workers)))
	if err := parallel.ForEachObservedCtx(ctx, sp.Observer(), w.workers, len(pages), func(wob *obs.Observer, i int) {
		out[i] = w.extractStreamObserved(pages[i], wob)
	}); err != nil {
		sp.End(obs.A("canceled", true))
		return nil, err
	}
	total := 0
	for _, objs := range out {
		total += len(objs)
	}
	sp.End(obs.A("objects", total))
	return out, nil
}
