package parallel

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
)

func TestForEachCtxRunsAllWithoutCancel(t *testing.T) {
	const n = 1000
	var hits [n]atomic.Int32
	if err := ForEachCtx(context.Background(), n, func(i int) { hits[i].Add(1) }); err != nil {
		t.Fatalf("ForEachCtx: %v", err)
	}
	for i := range hits {
		if got := hits[i].Load(); got != 1 {
			t.Fatalf("index %d ran %d times", i, got)
		}
	}
}

func TestForEachCtxCancelledBeforeStart(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ran := atomic.Int32{}
	err := ForEachCtx(ctx, 100, func(i int) { ran.Add(1) })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if ran.Load() != 0 {
		t.Fatalf("fn ran %d times after pre-cancelled ctx", ran.Load())
	}
}

func TestForEachCtxStopsSchedulingOnCancel(t *testing.T) {
	// Cancel from inside an early index: later chunks must be skipped, the
	// call must return ctx.Err(), and no index may run twice.
	const n = 100_000
	ctx, cancel := context.WithCancel(context.Background())
	var hits [n]atomic.Int32
	var ran atomic.Int64
	err := ForEachCtx(ctx, n, func(i int) {
		if ran.Add(1) == 10 {
			cancel()
		}
		hits[i].Add(1)
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if got := ran.Load(); got >= n {
		t.Fatalf("cancellation did not stop scheduling: all %d indexes ran", got)
	}
	for i := range hits {
		if got := hits[i].Load(); got > 1 {
			t.Fatalf("index %d ran %d times", i, got)
		}
	}
}

func TestForEachCtxPanicPropagates(t *testing.T) {
	defer func() {
		if r := recover(); r != "boom" {
			t.Fatalf("recover = %v, want boom", r)
		}
	}()
	_ = ForEachCtx(context.Background(), 1000, func(i int) {
		if i == 0 {
			panic("boom")
		}
	})
	t.Fatal("ForEachCtx returned instead of panicking")
}

// goroutineID returns the running goroutine's id from its stack header
// ("goroutine 7 [running]:").
func goroutineID() string {
	buf := make([]byte, 64)
	buf = buf[:runtime.Stack(buf, false)]
	return strings.Fields(string(buf))[1]
}

func TestForEachCtxPanicInCallerShare(t *testing.T) {
	// The calling goroutine runs one worker's share. Its panic must reach
	// the caller exactly once, and only after every pool goroutine has
	// stopped calling fn. The other workers wait inside their first index
	// until the caller's share has started, so the caller always gets a
	// chunk to panic in.
	caller := goroutineID()
	started := make(chan struct{})
	var inFlight, callerCalls atomic.Int32
	recovered := 0
	func() {
		defer func() {
			if r := recover(); r != nil {
				if r != "caller share" {
					t.Fatalf("recover = %v, want the caller share's panic", r)
				}
				recovered++
			}
		}()
		_ = forEach(context.Background(), 1000, 4, func(i int) {
			inFlight.Add(1)
			defer inFlight.Add(-1)
			if goroutineID() == caller {
				callerCalls.Add(1)
				close(started)
				panic("caller share")
			}
			<-started
		})
		t.Fatal("forEach returned instead of panicking")
	}()
	if recovered != 1 {
		t.Fatalf("panic reached the caller %d times, want 1", recovered)
	}
	if n := callerCalls.Load(); n != 1 {
		t.Fatalf("caller share ran %d indexes, want 1 (it panics on its first)", n)
	}
	if n := inFlight.Load(); n != 0 {
		t.Fatalf("%d fn calls still running after the panic reached the caller", n)
	}
}
