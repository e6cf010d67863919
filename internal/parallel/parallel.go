// Package parallel provides the bounded worker-pool primitive behind the
// pipeline's per-page fan-out (ROADMAP: "runs as fast as the hardware
// allows"). Every per-page stage — cleaning, segmentation, annotation,
// tokenization, extraction — is embarrassingly parallel: fn(i) writes
// only to the i-th slot of a pre-sized result slice, so results come back
// merged in stable input order and output stays byte-identical to the
// sequential path regardless of scheduling.
//
// There is one fan-out implementation, MapWorkersCtx (chunks.go); the
// per-index forms below run on its workers. They honor context
// cancellation: once the context is canceled (or any index panics), no
// further index starts — each worker finishes at most the item it
// already holds, so cancellation latency is bounded by one in-flight
// item per worker.
package parallel

import (
	"context"
	"runtime"
	"sync/atomic"

	"objectrunner/internal/obs"
)

// Workers resolves a configured worker count: values <= 0 mean "one
// worker per available CPU" (runtime.GOMAXPROCS(0)).
func Workers(n int) int {
	if n <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return n
}

// ForEachCtx invokes fn(i) for every i in [0, n), fanning the indices
// out across at most workers goroutines and blocking until all calls
// return. workers <= 1 (or n <= 1) degenerates to a plain sequential
// loop on the calling goroutine. fn must confine its writes to per-index
// state; a panic in any fn is re-raised on the calling goroutine after
// the pool drains.
//
// Once ctx is canceled no further index starts and the context error is
// returned; indices already running still complete, so callers must
// treat the result slots as partially filled when a non-nil error comes
// back. The error reports whether the input was fully processed, not
// whether the context is canceled now: when every index completed, the
// return is nil even if a cancellation raced the final items. A nil ctx
// behaves like context.Background().
func ForEachCtx(ctx context.Context, workers, n int, fn func(i int)) error {
	return forEach(ctx, nil, workers, n, func(_ *obs.Observer, _, i int) { fn(i) })
}

// ForEachObservedCtx is ForEachCtx with observability: each worker runs
// under its own "pipeline.worker" span parented to ob (nil-safe), and fn
// receives the worker-scoped observer so nested spans and events land
// under the right worker. The span records the number of items the
// worker processed.
func ForEachObservedCtx(ctx context.Context, ob *obs.Observer, workers, n int, fn func(wob *obs.Observer, i int)) error {
	return forEach(ctx, ob, workers, n, func(wob *obs.Observer, _, i int) { fn(wob, i) })
}

// forEach is the core of the per-index forms. It runs fn once per index
// on MapWorkersCtx's workers, passing the worker ordinal (0 on the
// sequential path) and the worker-scoped observer (nil when ob is
// disabled). The workers ignore their chunk bounds and claim indices
// from one shared cursor instead, so items of uneven cost still balance:
// the annotation rounds, for one, process pages sorted richest first.
func forEach(ctx context.Context, ob *obs.Observer, workers, n int, fn func(wob *obs.Observer, worker, i int)) error {
	if ctx == nil {
		ctx = context.Background()
	}
	if n <= 0 {
		return nil
	}
	if min(Workers(workers), n) == 1 {
		// The sequential path stays a loop on the caller; c stays on
		// its stack, so the path allocates nothing. It yields after
		// every item too (see claims.yield): a daemon infers on the
		// request goroutine, and a request arriving mid-wrap then waits
		// for one item rather than for the wrap's next preemption.
		c := claims{yield: true}
		return runWorker(ctx, ob, 0, n, &c, fn)
	}
	c := &claims{yield: true}
	_, err := MapWorkersCtx(ctx, workers, n, func(ctx context.Context, worker int, _ Chunk) (struct{}, error) {
		defer func() {
			if r := recover(); r != nil {
				c.failed.Store(true)
				panic(r)
			}
		}()
		return struct{}{}, runWorker(ctx, ob, worker, n, c, fn)
	})
	return err
}

// claims is the state the workers of one fan-out share: the next index
// to run, and whether an index panicked. MapWorkersCtx re-raises the
// panic once every worker has returned.
type claims struct {
	next   atomic.Int64
	failed atomic.Bool
	// yield hands the CPU on after every item. Without it a worker
	// keeps its CPU until the scheduler preempts it on a timer: at one
	// CPU the allocation count of a fan-out then varies from run to run,
	// and a request that arrives during a long wrap — fanned out or on
	// one goroutine — waits longer for a CPU. On two CPUs a garbage
	// collection's mark worker takes one of them for its whole phase, so
	// a wrap that held the other until preempted stalled every request
	// arriving meanwhile for up to 10 ms.
	yield bool
}

// runWorker runs fn on the indices it claims until none is left, ctx
// is canceled or another worker panicked, under a pipeline.worker span
// when ob is enabled. It returns nil unless it claimed an index it did
// not run, so the fan-out's error is nil exactly when every index ran.
func runWorker(ctx context.Context, ob *obs.Observer, worker, n int, c *claims, fn func(wob *obs.Observer, worker, i int)) error {
	var sp *obs.Span
	var wob *obs.Observer
	if ob.Enabled() {
		sp = ob.WorkerSpan(worker)
		wob = sp.Observer()
	}
	items := 0
	var err error
	for {
		i := int(c.next.Add(1) - 1)
		// After a panic the caller sees the panic, not this result.
		if i >= n || c.failed.Load() {
			break
		}
		if err = ctx.Err(); err != nil {
			break
		}
		fn(wob, worker, i)
		items++
		if c.yield {
			runtime.Gosched()
		}
	}
	if sp != nil {
		sp.End(obs.A("items", items))
	}
	return err
}
