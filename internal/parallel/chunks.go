package parallel

import (
	"context"
	"sync"
)

// Chunk is a contiguous half-open index range [Lo, Hi) owned by one
// worker of a chunked fan-out.
type Chunk struct{ Lo, Hi int }

// Len returns the number of indices in the chunk.
func (c Chunk) Len() int { return c.Hi - c.Lo }

// Chunks partitions [0, n) into at most `workers` contiguous chunks whose
// sizes differ by at most one, larger chunks first. The partition is a
// pure function of (workers, n): two calls with the same arguments always
// return the same boundaries, which is what lets a second fan-out (e.g.
// the symbol remap pass) revisit exactly the ranges a first fan-out
// produced per-worker state for. Empty chunks are never returned: with
// workers > n the result has n single-index chunks.
func Chunks(workers, n int) []Chunk {
	if n <= 0 {
		return nil
	}
	workers = min(Workers(workers), n)
	out := make([]Chunk, workers)
	for w := range out {
		out[w] = chunkAt(workers, n, w)
	}
	return out
}

// chunkAt returns chunk w of the partition of [0, n) into workers
// chunks (1 <= workers <= n), without materializing the others.
func chunkAt(workers, n, w int) Chunk {
	size, rem := n/workers, n%workers
	lo := w*size + min(w, rem)
	hi := lo + size
	if w < rem {
		hi++
	}
	return Chunk{Lo: lo, Hi: hi}
}

// MapWorkersCtx is the package's one fan-out primitive: it partitions
// [0, n) into the deterministic contiguous Chunks(workers, n), runs fn
// once per chunk — all chunks concurrently — and returns the per-chunk
// results in chunk order. A chunk is owned start-to-finish by a single
// worker, so fn can accumulate worker-local state (a local symbol table,
// a local buffer) across its whole range with zero cross-worker
// synchronization, and the caller can merge the returned states in a
// deterministic left-to-right pass. The per-index forms (ForEachCtx,
// ForEachObservedCtx) run on its workers but claim indices one at a
// time instead of using the chunk bounds.
//
// fn receives ctx and is responsible for its own cancellation checks
// between items; MapWorkersCtx itself only refuses to start work on an
// already-canceled context. The first non-nil error in chunk order is
// returned with a nil result slice. A panic in any chunk is re-raised on
// the calling goroutine after all chunks finish. The calling goroutine
// runs the first chunk; workers <= 1 (or a single chunk) therefore
// starts no goroutines at all.
func MapWorkersCtx[T any](ctx context.Context, workers, n int, fn func(ctx context.Context, worker int, c Chunk) (T, error)) ([]T, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if n <= 0 {
		return nil, nil
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	nw := min(Workers(workers), n)
	results := make([]T, nw)
	if nw == 1 {
		var err error
		results[0], err = fn(ctx, 0, Chunk{Lo: 0, Hi: n})
		if err != nil {
			return nil, err
		}
		return results, nil
	}
	// The calling goroutine runs chunk 0 itself instead of idling in
	// Wait; every other chunk gets a goroutine. The shared state sits in
	// one allocation.
	errs := make([]error, nw)
	f := &fanout[T]{ctx: ctx, fn: fn, workers: nw, n: n, results: results, errs: errs}
	f.wg.Add(nw - 1)
	for w := 1; w < nw; w++ {
		go func(worker int) {
			defer f.wg.Done()
			f.run(worker)
		}(w)
	}
	f.run(0)
	f.wg.Wait()
	if f.panicked != nil {
		panic(f.panicked)
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return results, nil
}

// fanout is the state one MapWorkersCtx call shares with its workers.
type fanout[T any] struct {
	ctx       context.Context
	fn        func(ctx context.Context, worker int, c Chunk) (T, error)
	workers   int
	n         int
	results   []T
	errs      []error
	wg        sync.WaitGroup
	panicOnce sync.Once
	panicked  any
}

// run executes one chunk, recording its result and error, or its panic
// for re-raising on the calling goroutine once every chunk finished.
func (f *fanout[T]) run(worker int) {
	defer func() {
		if r := recover(); r != nil {
			f.panicOnce.Do(func() { f.panicked = r })
		}
	}()
	f.results[worker], f.errs[worker] = f.fn(f.ctx, worker, chunkAt(f.workers, f.n, worker))
}
