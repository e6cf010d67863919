package objectrunner

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"time"

	"objectrunner/internal/obs"
	"objectrunner/internal/store"
	"objectrunner/internal/wrapper"
)

// StoreConfig tunes a Service's wrapper cache.
type StoreConfig struct {
	// Capacity bounds the wrappers held in memory (LRU beyond it).
	// Default 64.
	Capacity int
	// TTL expires cached wrappers after this long; 0 means no expiry.
	TTL time.Duration
	// HealthThreshold re-infers a source whose served pages come back
	// empty at a rate above this fraction (template drift detection);
	// 0 disables the health check.
	HealthThreshold float64
	// MinServedPages is the served-page floor before the health check
	// applies. Default 8.
	MinServedPages int
	// SpillDir persists wrappers to disk, surviving LRU eviction and
	// process restarts. Empty disables spilling.
	SpillDir string
}

// Service is the serving facade: an Extractor plus a wrapper cache. One
// Service handles many sources concurrently; the first ServeExtract for a
// source pays for wrapper inference (deduplicated across concurrent
// callers), every later call reuses the cached wrapper and runs only
// extraction.
type Service struct {
	ex *Extractor
	st *store.Store
}

// NewService builds a serving facade over the extractor.
func NewService(ex *Extractor, cfg StoreConfig) *Service {
	return &Service{
		ex: ex,
		st: store.New(store.Config{
			Capacity:        cfg.Capacity,
			TTL:             cfg.TTL,
			HealthThreshold: cfg.HealthThreshold,
			MinServedPages:  cfg.MinServedPages,
			SpillDir:        cfg.SpillDir,
			Obs:             ex.obs,
			// The spill codec re-binds the extractor's live SOD (and its
			// rules) to wrappers loaded from disk, exactly like LoadWrapper.
			Encode: func(w *wrapper.Wrapper, dst *os.File) error { return w.Encode(dst) },
			Decode: func(src *os.File) (*wrapper.Wrapper, error) {
				inner, err := wrapper.Decode(src, ex.sod)
				if err != nil {
					return nil, err
				}
				inner.SetWorkers(ex.cfg.Workers)
				inner.SetObserver(ex.obs)
				return inner, nil
			},
		}),
	}
}

// Wrapper returns the cached wrapper for the source, inferring it from
// the pages on a miss. Aborted wrappers are cached too — a source that
// does not carry the targeted data stays discarded until invalidated or
// evicted, instead of re-running inference per request — and come back
// with an error wrapping ErrAborted, like Wrap.
func (s *Service) Wrapper(ctx context.Context, sourceKey string, pages []string) (*Wrapper, error) {
	inner, err := s.st.Get(ctx, sourceKey, func(ctx context.Context) (*wrapper.Wrapper, error) {
		w, werr := s.ex.WrapContext(ctx, pages)
		if werr != nil && !errors.Is(werr, ErrAborted) {
			return nil, werr
		}
		return w.inner, nil
	})
	if err != nil {
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			return nil, canceledErr(err)
		}
		return nil, err
	}
	w := &Wrapper{inner: inner}
	if inner != nil && inner.Aborted {
		return w, abortedErr(inner.AbortReason)
	}
	return w, nil
}

// ServeExtract answers one extraction request: wrap-on-miss, extract-on-
// hit. The sourceKey identifies the source across requests (typically its
// site or crawl URL); pages are the request's raw HTML. On a cache miss
// the pages also serve as the inference input. Cancellation stops both
// inference and extraction promptly (ErrCanceled); a source that does not
// carry the targeted data returns ErrAborted. The per-page empty rate
// feeds the cache's health accounting, so a wrapper that stops matching
// its source is re-inferred after HealthThreshold is crossed.
//
// Every serve also feeds per-source telemetry on the extractor's
// observer: the serve.extract duration histogram and the serve.pages /
// serve.pages.empty / serve.objects / serve.errors counters, each
// labeled with the source key — match rate and empty-serve rate per
// source are (pages - pages.empty) / pages over any scrape interval.
func (s *Service) ServeExtract(ctx context.Context, sourceKey string, pages []string) ([]*Object, error) {
	start := time.Now()
	src := obs.L("source", sourceKey)
	w, err := s.Wrapper(ctx, sourceKey, pages)
	if errors.Is(err, ErrAborted) {
		// Aborted serves count as all-empty: a healthy source that was
		// discarded by a transient bad page set heals via eviction.
		s.st.RecordServe(sourceKey, len(pages), len(pages))
		s.ex.obs.CountL("serve.pages", int64(len(pages)), src)
		s.ex.obs.CountL("serve.pages.empty", int64(len(pages)), src)
		s.ex.obs.CountL("serve.errors", 1, src, obs.L("kind", "aborted"))
		return nil, err
	}
	if err != nil {
		s.ex.obs.CountL("serve.errors", 1, src, obs.L("kind", errKind(err)))
		return nil, err
	}
	per, err := w.ExtractStreamBatchContext(ctx, pages)
	if err != nil {
		s.ex.obs.CountL("serve.errors", 1, src, obs.L("kind", errKind(err)))
		return nil, err
	}
	empty := 0
	var out []*Object
	for _, objs := range per {
		if len(objs) == 0 {
			empty++
		}
		out = append(out, objs...)
	}
	s.st.RecordServe(sourceKey, empty, len(pages))
	s.ex.obs.ObserveL("serve.extract", time.Since(start), src)
	s.ex.obs.CountL("serve.pages", int64(len(pages)), src)
	s.ex.obs.CountL("serve.pages.empty", int64(empty), src)
	s.ex.obs.CountL("serve.objects", int64(len(out)), src)
	return out, nil
}

// errKind buckets a serve error into a bounded label value.
func errKind(err error) string {
	switch {
	case errors.Is(err, ErrCanceled), errors.Is(err, context.Canceled):
		return "canceled"
	case errors.Is(err, context.DeadlineExceeded):
		return "deadline"
	case errors.Is(err, ErrClosed):
		return "closed"
	default:
		return "error"
	}
}

// Invalidate drops the source's cached wrapper (memory and disk); the
// next request re-infers.
func (s *Service) Invalidate(sourceKey string) { s.st.Invalidate(sourceKey) }

// Close drains the service for shutdown: new requests fail, in-flight
// wrapper builds are waited for (bounded by ctx), and every cached
// wrapper is spilled to the configured SpillDir so the next process
// starts warm. Idempotent; returns ctx.Err() when the wait was cut
// short.
func (s *Service) Close(ctx context.Context) error { return s.st.Close(ctx) }

// StoreStats is a snapshot of the service's cache accounting.
type StoreStats = store.Stats

// Stats returns the cache accounting (hits, misses, evictions by cause,
// singleflight shares, disk hits).
func (s *Service) Stats() StoreStats { return s.st.Stats() }

// SaveWrapperFile persists a wrapper to path (Save to a temp file plus
// rename, so a crash never leaves a truncated stream).
func SaveWrapperFile(w *Wrapper, path string) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), ".wrapper-*")
	if err != nil {
		return err
	}
	if err := w.Save(tmp); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return os.Rename(tmp.Name(), path)
}

// LoadWrapperFile loads a wrapper persisted by SaveWrapperFile.
func LoadWrapperFile(path string, ex *Extractor) (*Wrapper, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return LoadWrapper(f, ex)
}
