// Package parallel is the bounded worker-pool utility behind the offline
// pipeline's fan-out: AREPAS sweeps, dataset generation, batch evaluation
// and the experiment runners are all embarrassingly parallel per item, and
// this package lets them scale to every core while staying bit-reproducible.
//
// Determinism is the design constraint. Map and ForEach preserve input
// ordering (result i always comes from item i), reductions over their
// results happen serially in the caller, and Seed derives an independent
// per-item RNG seed from a base seed and the item index — never from the
// goroutine that happens to run the item. Consequently a stage's output is
// byte-identical at any worker count and any GOMAXPROCS: Workers(1) runs
// the exact serial legacy path (no goroutines), and Workers(n) produces the
// same bytes faster.
package parallel

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers normalizes a worker-count knob: values below 1 (the "use
// everything" default for zero configs) become runtime.NumCPU().
func Workers(n int) int {
	if n < 1 {
		return runtime.NumCPU()
	}
	return n
}

// capturedPanic records a worker panic so it can be re-raised on the
// calling goroutine instead of crashing the process from inside the pool.
type capturedPanic struct {
	index int
	value any
	stack []byte
}

// Map applies f to every index in [0, n) using at most workers goroutines
// and returns the n results in input order. workers < 1 means
// runtime.NumCPU(); workers == 1 runs f inline on the calling goroutine —
// the exact legacy serial path, no goroutines spawned.
//
// Error semantics are deterministic: if any items fail, Map returns the
// error of the lowest failing index (first-error propagation in input
// order), regardless of completion order: every index below a failing one
// still runs, so a lower failure is never masked by a higher one that
// happened to finish first. Items above the lowest failure (or a context
// cancellation) stop being dispatched, so f must tolerate not being called
// for every index on failure — and, conversely, may have been called for
// indices after the failing one.
//
// A panic inside f is captured, the pool is drained, and the panic is
// re-raised on the calling goroutine (lowest panicking index first) with
// the worker's stack trace attached.
func Map[T any](ctx context.Context, n, workers int, f func(i int) (T, error)) ([]T, error) {
	if n <= 0 {
		return nil, nil
	}
	workers = Workers(workers)
	if workers > n {
		workers = n
	}
	out := make([]T, n)

	if workers == 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			v, err := f(i)
			if err != nil {
				return nil, err
			}
			out[i] = v
		}
		return out, nil
	}

	var (
		next atomic.Int64 // next index to dispatch
		// limit is the lowest index that failed, panicked or saw the
		// context cancelled (n while none has). Indices are claimed in
		// increasing order, so a worker that claims one at or past limit
		// can stop, while every index below it still runs: that is what
		// makes "the lowest failing index" independent of scheduling.
		limit   atomic.Int64
		mu      sync.Mutex
		firstEr error
		panics  []capturedPanic
		wg      sync.WaitGroup
	)
	limit.Store(int64(n))
	// lower moves limit down to i and reports whether i is the new lowest.
	// Callers hold mu.
	lower := func(i int) bool {
		if int64(i) >= limit.Load() {
			return false
		}
		limit.Store(int64(i))
		return true
	}
	fail := func(i int, err error) {
		mu.Lock()
		if lower(i) {
			firstEr = err
		}
		mu.Unlock()
	}
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if int64(i) >= limit.Load() {
					return
				}
				if err := ctx.Err(); err != nil {
					fail(i, err)
					return
				}
				func() {
					defer func() {
						if r := recover(); r != nil {
							mu.Lock()
							panics = append(panics, capturedPanic{index: i, value: r, stack: workerStack()})
							lower(i)
							mu.Unlock()
						}
					}()
					v, err := f(i)
					if err != nil {
						fail(i, err)
						return
					}
					out[i] = v
				}()
			}
		}()
	}
	wg.Wait()

	if len(panics) > 0 {
		p := panics[0]
		for _, q := range panics[1:] {
			if q.index < p.index {
				p = q
			}
		}
		panic(fmt.Sprintf("parallel: panic on item %d: %v\n\nworker stack:\n%s", p.index, p.value, p.stack))
	}
	if firstEr != nil {
		return nil, firstEr
	}
	return out, nil
}

// workerStack captures the panicking worker's stack (without crashing on
// allocation pressure — a truncated stack is fine for diagnostics).
func workerStack() []byte {
	buf := make([]byte, 16<<10)
	return buf[:runtime.Stack(buf, false)]
}

// ForEach applies f to every index in [0, n) with Map's scheduling, error
// and panic semantics, for stages that write results through captured
// slices (index i is owned exclusively by call i, so no locking is needed).
func ForEach(ctx context.Context, n, workers int, f func(i int) error) error {
	_, err := Map(ctx, n, workers, func(i int) (struct{}, error) {
		return struct{}{}, f(i)
	})
	return err
}

// Seed derives the RNG seed for one work item from a base seed and the
// item's index, using the SplitMix64 finalizer over the pair. Deriving
// seeds from indices — never from worker identity or dispatch order — is
// what keeps stochastic stages (noisy flighting) bit-reproducible at any
// worker count: item i draws from its own stream no matter which goroutine
// runs it or when. The finalizer's avalanche behaviour keeps neighbouring
// indices statistically independent even though base+index pairs are
// highly correlated.
func Seed(base int64, index int) int64 {
	z := uint64(base) + 0x9e3779b97f4a7c15*(uint64(index)+1)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return int64(z)
}
