// Package par provides the bounded worker pool used to fan out the
// embarrassingly parallel steps of the pipeline (per-vertex ball queries,
// the independent preparation sparse covers, per-region local solves).
//
// The contract is built for determinism: callers index their inputs and
// outputs by task id, workers write only to their own task's output slot,
// and the caller merges results in task order afterwards. Under that
// discipline the observable result is bit-identical for any worker count,
// which is what lets the parallel and sequential paths of the solvers
// cross-check against each other.
//
// Every fan-out is cancellable: ForEachCtx stops handing out new tasks the
// moment its context is cancelled (tasks already started run to completion)
// and returns the context's error, so a deadline-bounded request never
// holds the pool hostage. ForEach is the uncancellable wrapper.
//
// Tasks are scheduled dynamically: workers grab the next undone index (or,
// with ForEachChunk, the next contiguous chunk of indices) from a shared
// atomic counter, so skewed per-item costs balance across workers without
// any static assignment. Chunking trades scheduling granularity for fewer
// atomic operations on cheap items; both schedules run every index exactly
// once and preserve the in-order merge contract, so the observable output
// is identical to a static partitioning.
package par

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers normalizes a worker-count knob: values <= 0 mean GOMAXPROCS.
func Workers(requested int) int {
	if requested <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return requested
}

// ForEach runs fn(worker, i) for every i in [0, n), using at most
// `workers` goroutines (<= 0 means GOMAXPROCS). The worker argument is a
// stable id in [0, workers), so callers can give each worker its own
// scratch space (e.g. a graph.ParWorkspace). Tasks are handed out dynamically
// via an atomic counter; ForEach returns once every invocation finished.
//
// With one worker (or n <= 1) everything runs inline on the calling
// goroutine with zero overhead — the sequential path is literally the same
// code, which keeps "Workers: 1" runs trivially identical to parallel ones
// for deterministic fn.
//
// A panic inside fn does not crash the process from a worker goroutine: the
// first panic value observed is re-thrown on the calling goroutine after
// the surviving workers drain (a panicking worker stops pulling tasks, so
// remaining tasks may or may not run — callers must treat a panicked
// ForEach as having no usable output).
func ForEach(workers, n int, fn func(worker, i int)) {
	forEach(nil, workers, n, 1, fn)
}

// ForEachChunk is ForEach with chunked dynamic scheduling: workers grab
// contiguous chunks of `chunk` indices from the shared atomic counter and
// run fn on each index of the chunk in order. One atomic operation per
// chunk instead of per item makes this the right schedule when individual
// items are cheap but their costs are skewed (per-vertex ball queries,
// per-vertex RNG draws): small chunks still balance the skew, and the
// in-order merge contract is unchanged — every index runs exactly once, so
// callers that write out[i] from task i observe output identical to
// ForEach or any static partitioning. chunk <= 1 degenerates to ForEach.
func ForEachChunk(workers, n, chunk int, fn func(worker, i int)) {
	forEach(nil, workers, n, chunk, fn)
}

// ForEachChunkCtx is ForEachChunk with cancellation: the done channel is
// polled once per chunk (not per item), so in-flight chunks finish before
// the fan-out stops. See ForEachCtx for the error contract.
func ForEachChunkCtx(ctx context.Context, workers, n, chunk int, fn func(worker, i int)) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	forEach(ctx.Done(), workers, n, chunk, fn)
	return ctx.Err()
}

// ForEachCtx is ForEach with cancellation: once ctx is cancelled, no new
// task is dispatched (in-flight tasks finish) and the context's error is
// returned. A nil-Done context (context.Background, context.TODO) takes the
// exact ForEach fast path with no per-task overhead. On a non-nil error the
// output is incomplete and callers must discard it; on a nil return every
// task ran.
func ForEachCtx(ctx context.Context, workers, n int, fn func(worker, i int)) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	forEach(ctx.Done(), workers, n, 1, fn)
	return ctx.Err()
}

// stopped polls a done channel without blocking; a nil channel never stops.
func stopped(done <-chan struct{}) bool {
	if done == nil {
		return false
	}
	select {
	case <-done:
		return true
	default:
		return false
	}
}

func forEach(done <-chan struct{}, workers, n, chunk int, fn func(worker, i int)) {
	if n <= 0 {
		return
	}
	if chunk < 1 {
		chunk = 1
	}
	workers = Workers(workers)
	chunks := (n + chunk - 1) / chunk
	if workers > chunks {
		workers = chunks
	}
	if workers == 1 {
		if done == nil {
			for i := 0; i < n; i++ {
				fn(0, i)
			}
			return
		}
		// The sequential path polls at the same chunk granularity as the
		// parallel one, so cancellation latency does not depend on the
		// worker count.
		for lo := 0; lo < n; lo += chunk {
			if stopped(done) {
				return
			}
			for i := lo; i < min(lo+chunk, n); i++ {
				fn(0, i)
			}
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	var panicOnce sync.Once
	var panicVal any
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(worker int) {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					panicOnce.Do(func() { panicVal = r })
				}
			}()
			for {
				if stopped(done) {
					return
				}
				c := int(next.Add(1)) - 1
				if c >= chunks {
					return
				}
				for i := c * chunk; i < min((c+1)*chunk, n); i++ {
					fn(worker, i)
				}
			}
		}(w)
	}
	wg.Wait()
	if panicVal != nil {
		panic(panicVal)
	}
}
