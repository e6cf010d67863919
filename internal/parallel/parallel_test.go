package parallel

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"objectrunner/internal/obs"
)

func TestWorkersResolution(t *testing.T) {
	if got, want := Workers(0), runtime.GOMAXPROCS(0); got != want {
		t.Errorf("Workers(0) = %d, want %d", got, want)
	}
	if got, want := Workers(-3), runtime.GOMAXPROCS(0); got != want {
		t.Errorf("Workers(-3) = %d, want %d", got, want)
	}
	if got := Workers(5); got != 5 {
		t.Errorf("Workers(5) = %d", got)
	}
}

func TestForEachCoversEveryIndexExactlyOnce(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 4, 100} {
		for _, n := range []int{0, 1, 7, 64} {
			hits := make([]int32, n)
			if err := ForEachCtx(context.Background(), workers, n, func(i int) { atomic.AddInt32(&hits[i], 1) }); err != nil {
				t.Fatalf("workers=%d n=%d: err = %v", workers, n, err)
			}
			for i, h := range hits {
				if h != 1 {
					t.Errorf("workers=%d n=%d: index %d visited %d times", workers, n, i, h)
				}
			}
		}
	}
}

func TestForEachWorkerOrdinalInBounds(t *testing.T) {
	const workers, n = 4, 32
	var mu sync.Mutex
	seen := make(map[int]bool)
	forEach(context.Background(), nil, workers, n, func(_ *obs.Observer, worker, i int) {
		if worker < 0 || worker >= workers {
			t.Errorf("worker ordinal %d out of [0, %d)", worker, workers)
		}
		mu.Lock()
		seen[worker] = true
		mu.Unlock()
	})
	if len(seen) == 0 {
		t.Fatal("no worker ran")
	}
}

func TestForEachSequentialFastPathUsesWorkerZero(t *testing.T) {
	forEach(context.Background(), nil, 1, 8, func(_ *obs.Observer, worker, i int) {
		if worker != 0 {
			t.Errorf("sequential path reported worker %d", worker)
		}
	})
}

func TestForEachPanicPropagates(t *testing.T) {
	defer func() {
		if r := recover(); r != "boom" {
			t.Fatalf("recovered %v, want the worker's panic value", r)
		}
	}()
	ForEachCtx(context.Background(), 4, 16, func(i int) {
		if i == 5 {
			panic("boom")
		}
	})
	t.Fatal("panic in a worker was swallowed")
}

func TestForEachObservedSharesMetricsAndEndsWorkerSpans(t *testing.T) {
	ob := obs.New()
	var total int64
	if err := ForEachObservedCtx(context.Background(), ob, 4, 10, func(wob *obs.Observer, i int) {
		wob.Count("test.items", 1)
		atomic.AddInt64(&total, 1)
	}); err != nil {
		t.Fatal(err)
	}
	if total != 10 {
		t.Fatalf("ran %d items, want 10", total)
	}
	if got := ob.Counter("test.items"); got != 10 {
		t.Errorf("worker-scoped counter = %d, want 10", got)
	}
	hists := ob.Histograms()
	ws, ok := hists["span.pipeline.worker"]
	if !ok {
		t.Fatal("no pipeline.worker span was recorded")
	}
	if ws.Count < 1 || ws.Count > 4 {
		t.Errorf("worker span count = %d, want 1..4", ws.Count)
	}
}

func TestForEachObservedDisabledObserver(t *testing.T) {
	hits := make([]int32, 6)
	if err := ForEachObservedCtx(context.Background(), nil, 3, len(hits), func(wob *obs.Observer, i int) {
		if wob.Enabled() {
			t.Error("disabled parent produced an enabled worker observer")
		}
		atomic.AddInt32(&hits[i], 1)
	}); err != nil {
		t.Fatal(err)
	}
	for i, h := range hits {
		if h != 1 {
			t.Errorf("index %d visited %d times", i, h)
		}
	}
}

func TestForEachCtxCanceledBeforeStart(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ran := int32(0)
	err := ForEachCtx(ctx, 4, 100, func(i int) { atomic.AddInt32(&ran, 1) })
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if ran != 0 {
		t.Errorf("%d items ran after pre-canceled context (workers may hold at most their in-flight item)", ran)
	}
}

func TestForEachCtxStopsDispatchOnCancel(t *testing.T) {
	const workers, n = 4, 1000
	ctx, cancel := context.WithCancel(context.Background())
	var ran int32
	err := ForEachCtx(ctx, workers, n, func(i int) {
		if atomic.AddInt32(&ran, 1) == workers {
			cancel() // all workers busy once; nothing more may be dispatched
		}
	})
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// Bounded by one in-flight item per worker around the cancel point:
	// a worker may have passed its cancellation check just before the
	// cancel landed.
	if got := atomic.LoadInt32(&ran); got > 2*workers {
		t.Errorf("ran %d items after cancel, want <= %d", got, 2*workers)
	}
}

func TestForEachCtxSequentialPathStopsOnCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var ran int32
	err := ForEachCtx(ctx, 1, 100, func(i int) {
		if i == 3 {
			cancel()
		}
		atomic.AddInt32(&ran, 1)
	})
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if ran != 4 {
		t.Errorf("sequential path ran %d items after cancel at index 3, want 4", ran)
	}
}

func TestForEachStopsDispatchAfterWorkerPanic(t *testing.T) {
	const workers, n = 2, 10000
	var ran int32
	func() {
		defer func() {
			if r := recover(); r != "die" {
				t.Fatalf("recovered %v, want the worker's panic value", r)
			}
		}()
		ForEachCtx(context.Background(), workers, n, func(i int) {
			v := atomic.AddInt32(&ran, 1)
			if v == 1 {
				panic("die")
			}
			// Let the panic win the race against healthy workers.
			time.Sleep(100 * time.Microsecond)
		})
		t.Fatal("panic was swallowed")
	}()
	// Far below n: the other chunks must stop once the panic is observed.
	if got := atomic.LoadInt32(&ran); got > n/2 {
		t.Errorf("ran %d of %d items after a worker panic; dispatch did not stop", got, n)
	}
}

// TestForEachCtxNilAfterAllIndicesCompleted is the regression test for
// the cancel-vs-completion race: a context canceled while (or after) the
// final items run must NOT surface as an error when every index was
// dispatched and completed — callers own a fully-populated result slice
// and would wrongly discard it.
func TestForEachCtxNilAfterAllIndicesCompleted(t *testing.T) {
	const workers, n = 4, 8
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var ran int32
	// The item that brings the counter to n is the last to finish: every
	// index has started by then, so the cancel races (and loses to)
	// completion of the whole input.
	err := ForEachCtx(ctx, workers, n, func(i int) {
		if atomic.AddInt32(&ran, 1) == n {
			cancel()
		}
	})
	if err != nil {
		t.Fatalf("err = %v after all %d indices completed, want nil", err, n)
	}
	if got := atomic.LoadInt32(&ran); got != n {
		t.Fatalf("ran %d of %d items", got, n)
	}
}

func TestForEachCtxSequentialNilAfterAllIndicesCompleted(t *testing.T) {
	const n = 5
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var ran int32
	err := ForEachCtx(ctx, 1, n, func(i int) {
		if i == n-1 {
			cancel() // races the return of the final item on the sequential path
		}
		atomic.AddInt32(&ran, 1)
	})
	if err != nil {
		t.Fatalf("err = %v after all %d indices completed, want nil", err, n)
	}
	if ran != n {
		t.Fatalf("ran %d of %d items", ran, n)
	}
}

func TestForEachCtxEmptyInputReturnsNil(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := ForEachCtx(ctx, 4, 0, func(i int) {}); err != nil {
		t.Fatalf("err = %v for n=0 (vacuously complete), want nil", err)
	}
}

func TestForEachObservedCtxReturnsContextError(t *testing.T) {
	ob := obs.New()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := ForEachObservedCtx(ctx, ob, 4, 50, func(wob *obs.Observer, i int) {})
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}
