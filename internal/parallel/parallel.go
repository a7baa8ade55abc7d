// Package parallel provides the evaluation engine's bounded worker
// pool: independent work items (simulation cells) fan out across up to
// Workers goroutines while results are collected in deterministic input
// order.
//
// Every (scheme, app, cache-size) cell of the paper's evaluation
// constructs its own controller and its own seeded trace source, so
// cells share no mutable state and the fan-out is embarrassingly
// parallel. Map writes result i to slot i regardless of which worker
// ran it, and the figure code (figures.Sweep) builds its rows only
// after every cell has run, in the order the tables declared them, so
// a run with Workers=N is byte-identical to Workers=1 (see DESIGN.md §
// Parallel evaluation).
//
// Error handling follows the "first error wins, abort the sweep"
// policy: after the first failing cell, in-flight cells finish, queued
// cells are skipped, and Map returns the error of the lowest-indexed
// failed cell (deterministic under races where two cells fail
// near-simultaneously).
package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Pool describes a bounded fan-out.
//
// Workers is the maximum number of concurrently running items; zero or
// negative means runtime.GOMAXPROCS(0).
type Pool struct {
	Workers int
}

// Size resolves the effective worker count.
func (p Pool) Size() int {
	if p.Workers > 0 {
		return p.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// Map runs fn(i) for every i in [0, n) on up to p.Workers goroutines
// and returns the results indexed by input position.
//
// With one worker, Map degenerates to the plain sequential loop (no
// goroutines), which is the legacy evaluation path. With more, items
// are claimed from an atomic cursor — items therefore *start* in input
// order, and the deterministic result placement makes completion order
// irrelevant.
//
// On error, the returned slice is nil and the error is the failing
// item's (wrapped by fn, not by Map).
func Map[T any](p Pool, n int, fn func(i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	w := p.Size()
	if w > n {
		w = n
	}
	if w <= 1 {
		// Sequential fast path: identical to the pre-pool evaluation loop.
		for i := 0; i < n; i++ {
			v, err := fn(i)
			if err != nil {
				return nil, err
			}
			out[i] = v
		}
		return out, nil
	}

	var (
		cursor   atomic.Int64
		failed   atomic.Bool
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
		firstIdx = n
	)
	cursor.Store(-1)
	fail := func(i int, err error) {
		mu.Lock()
		if i < firstIdx {
			firstIdx, firstErr = i, err
		}
		mu.Unlock()
		failed.Store(true) // skip queued cells promptly
	}
	for k := 0; k < w; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(cursor.Add(1))
				if i >= n || failed.Load() {
					return
				}
				v, err := fn(i)
				if err != nil {
					fail(i, err)
					return
				}
				out[i] = v
			}
		}()
	}
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	return out, nil
}

// Do runs fn(i) for every i in [0, n) with the same scheduling and
// error semantics as Map, for item functions with no result value.
func Do(p Pool, n int, fn func(i int) error) error {
	_, err := Map(p, n, func(i int) (struct{}, error) {
		return struct{}{}, fn(i)
	})
	return err
}
