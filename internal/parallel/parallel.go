// Package parallel provides the bounded fan-out primitives the analytics
// layer is built on: chunked data-parallel loops (ForEach, Map) and a
// symmetric pair scheduler (MapPairsSymmetric) for O(n²) kernels such as
// pairwise trajectory similarity. Work is distributed dynamically over a
// worker pool sized by runtime.GOMAXPROCS, so callers get near-linear
// speedups on batch workloads without managing goroutines themselves.
package parallel

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers clamps a requested worker count: n if n > 0, else GOMAXPROCS.
func Workers(n int) int {
	if n > 0 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}

// chunkSize picks a grab size that amortises the atomic fetch while keeping
// enough chunks in flight for dynamic load balancing (≈8 chunks per worker).
func chunkSize(n, workers int) int {
	c := n / (workers * 8)
	if c < 1 {
		c = 1
	}
	return c
}

// ForEach invokes fn(i) for every i in [0, n), distributing chunks of
// indexes dynamically over a bounded worker pool. It returns when all calls
// have completed. fn must be safe for concurrent invocation on distinct
// indexes; invocations never share an index. A panic in fn is re-raised on
// the calling goroutine, so defer/recover around ForEach behaves as it
// would around a sequential loop.
func ForEach(n int, fn func(i int)) {
	ForEachN(n, 0, fn)
}

// workerPanic carries the first panic raised on a pool goroutine back to
// the calling goroutine, where it is re-raised — so a caller's
// defer/recover keeps working exactly as it would around a sequential
// loop. A worker panic also drains the remaining work (the cursor jumps
// past the end) so the pool winds down promptly.
type workerPanic struct{ val any }

// capturePanic is deferred on every pool goroutine: it records the first
// panic and jumps the work cursor past the end so idle workers stop
// pulling chunks.
func capturePanic(cursor *atomic.Int64, end int64, store *atomic.Pointer[workerPanic]) {
	if r := recover(); r != nil {
		store.CompareAndSwap(nil, &workerPanic{val: r})
		cursor.Store(end)
	}
}

// ForEachN is ForEach with an explicit worker count (0 = GOMAXPROCS).
func ForEachN(n, workers int, fn func(i int)) {
	forEach(context.Background(), n, workers, fn)
}

// ForEachCtx is ForEach with cooperative cancellation: workers stop
// grabbing new chunks once ctx is done, and ForEachCtx returns ctx.Err()
// if any index was skipped. Indexes already dispatched when cancellation
// lands still run to completion — fn is never interrupted mid-call — so
// on a nil return every index ran exactly once, and on a non-nil return
// each index ran at most once. This is the serving layer's deadline
// seam: a timed-out request stops burning shard workers at the next
// chunk boundary instead of finishing the whole plan.
func ForEachCtx(ctx context.Context, n int, fn func(i int)) error {
	return forEach(ctx, n, 0, fn)
}

// forEach is the one pool loop behind ForEach, ForEachN and ForEachCtx.
func forEach(ctx context.Context, n, workers int, fn func(i int)) error {
	if n <= 0 {
		return nil
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	w := Workers(workers)
	if w > n {
		w = n
	}
	if w == 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			fn(i)
		}
		return nil
	}
	chunk := chunkSize(n, w)
	var next atomic.Int64
	var stopped atomic.Bool
	var panicked atomic.Pointer[workerPanic]
	var wg sync.WaitGroup
	wg.Add(w)
	for g := 0; g < w; g++ {
		go func() {
			defer wg.Done()
			defer capturePanic(&next, int64(n)+int64(chunk), &panicked)
			for {
				lo := int(next.Add(int64(chunk))) - chunk
				if lo >= n {
					return
				}
				if ctx.Err() != nil {
					// Give the chunk back conceptually: record that work
					// was skipped and let every worker drain out.
					stopped.Store(true)
					next.Store(int64(n) + int64(chunk))
					return
				}
				hi := lo + chunk
				if hi > n {
					hi = n
				}
				for i := lo; i < hi; i++ {
					fn(i)
				}
			}
		}()
	}
	wg.Wait()
	if p := panicked.Load(); p != nil {
		panic(p.val)
	}
	if stopped.Load() {
		return ctx.Err()
	}
	return nil
}

// Map invokes fn(i) for every i in [0, n) in parallel and collects the
// results in index order.
func Map[T any](n int, fn func(i int) T) []T {
	if n <= 0 {
		return nil
	}
	out := make([]T, n)
	ForEach(n, func(i int) { out[i] = fn(i) })
	return out
}

// MapPairsSymmetric invokes fn(i, j) exactly once for every unordered pair
// 0 ≤ i < j < n, scheduling whole rows dynamically so the triangular
// workload stays balanced. It is the fan-out for symmetric O(n²) kernels:
// callers compute only the upper triangle and mirror the result. A panic
// in fn is re-raised on the calling goroutine, like ForEach.
func MapPairsSymmetric(n int, fn func(i, j int)) {
	MapPairsSymmetricWith(n, func() struct{} { return struct{}{} },
		func(_ struct{}, i, j int) { fn(i, j) })
}

// MapPairsSymmetricWith is MapPairsSymmetric with per-worker state: every
// pool goroutine calls newState exactly once and threads the result through
// all of its fn invocations. Kernels that need scratch buffers (DP rows,
// reusable arenas) allocate them once per worker instead of once per pair —
// the allocation-free discipline of the interned similarity kernels — while
// fn stays free of locking because no state value is ever shared between
// two goroutines.
func MapPairsSymmetricWith[S any](n int, newState func() S, fn func(s S, i, j int)) {
	if n < 2 {
		return
	}
	// Rows shrink as i grows (row i has n−1−i pairs); dynamic row
	// scheduling keeps late workers busy with the short tail rows.
	w := Workers(0)
	if w > n-1 {
		w = n - 1
	}
	if w == 1 {
		s := newState()
		for i := 0; i < n-1; i++ {
			for j := i + 1; j < n; j++ {
				fn(s, i, j)
			}
		}
		return
	}
	var next atomic.Int64
	var panicked atomic.Pointer[workerPanic]
	var wg sync.WaitGroup
	wg.Add(w)
	for g := 0; g < w; g++ {
		go func() {
			defer wg.Done()
			defer capturePanic(&next, int64(n), &panicked)
			s := newState()
			for {
				i := int(next.Add(1)) - 1
				if i >= n-1 {
					return
				}
				for j := i + 1; j < n; j++ {
					fn(s, i, j)
				}
			}
		}()
	}
	wg.Wait()
	if p := panicked.Load(); p != nil {
		panic(p.val)
	}
}
