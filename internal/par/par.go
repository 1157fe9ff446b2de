// Package par provides the tiny data-parallel helpers shared by the
// multi-exponentiation, FFT, and prover hot loops.
//
// A panic on a goroutine these helpers start does not kill the process:
// the worker captures it, the remaining workers finish, and the helper
// re-panics on the calling goroutine with a *Panic carrying the original
// value and the worker's stack — so whatever recover the caller runs
// under (the proof service's pool workers) sees it.
package par

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// Panic is what Range, Each and Do re-panic with on the calling
// goroutine after one of their worker goroutines panicked.
type Panic struct {
	Value any    // what the worker panicked with
	Stack []byte // the worker goroutine's stack at the panic
}

func (p *Panic) Error() string {
	return fmt.Sprintf("%v\n\npar worker stack:\n%s", p.Value, p.Stack)
}

// catcher holds the first panic of one group of worker goroutines.
type catcher struct {
	once sync.Once
	p    *Panic
}

// catch is deferred on every worker goroutine (one closure per
// goroutine, not per index). A *Panic from a nested helper passes
// through unwrapped, keeping the innermost stack.
func (c *catcher) catch() {
	r := recover()
	if r == nil {
		return
	}
	c.once.Do(func() {
		if p, ok := r.(*Panic); ok {
			c.p = p
			return
		}
		c.p = &Panic{Value: r, Stack: debug.Stack()}
	})
}

// rethrow runs on the calling goroutine once every worker has exited.
func (c *catcher) rethrow() {
	if c.p != nil {
		panic(c.p)
	}
}

// Workers is the parallelism used by Range and Each: GOMAXPROCS,
// capped at the physical CPU count — oversubscribing CPU-bound field
// arithmetic only adds scheduler churn. Callers sizing their own work
// decomposition (the MSM's chunk count) should use it too.
func Workers() int {
	workers := runtime.GOMAXPROCS(0)
	if ncpu := runtime.NumCPU(); workers > ncpu {
		workers = ncpu
	}
	return workers
}

// Range splits [0, n) into contiguous chunks executed concurrently on up
// to GOMAXPROCS goroutines. f must be safe for disjoint index ranges.
func Range(n int, f func(start, end int)) {
	workers := Workers()
	if workers > n {
		workers = n
	}
	if workers <= 1 || n < 256 {
		f(0, n)
		return
	}
	var wg sync.WaitGroup
	var c catcher
	chunk := (n + workers - 1) / workers
	for w := 0; w < workers; w++ {
		start := w * chunk
		end := start + chunk
		if end > n {
			end = n
		}
		if start >= end {
			break
		}
		wg.Add(1)
		go func(s, e int) {
			defer wg.Done()
			defer c.catch()
			f(s, e)
		}(start, end)
	}
	wg.Wait()
	c.rethrow()
}

// Each runs f(i) for every i in [0, n) on up to GOMAXPROCS goroutines,
// pulling indices from a shared atomic counter so long tasks don't
// stall short ones. Unlike Range it parallelizes even tiny n: it is
// meant for coarse-grained tasks (an MSM chunk×window cell, a whole
// bucket reduction) whose body dwarfs the scheduling cost. For fine
// per-element loops use Range.
func Each(n int, f func(i int)) {
	workers := Workers()
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			f(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	var c catcher
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer c.catch()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				f(i)
			}
		}()
	}
	wg.Wait()
	c.rethrow()
}

// Do runs f on a fresh goroutine and g on the caller's, whatever
// GOMAXPROCS is, and returns when both have: the join of two
// independent tasks (the prover's quotient lane beside its witness
// lane). Do always waits for f — also when g panics, whose panic then
// continues up the calling goroutine as it would have without Do.
func Do(f, g func()) {
	var c catcher
	done := make(chan struct{})
	go func() {
		defer close(done)
		defer c.catch()
		f()
	}()
	returned := false
	defer func() {
		<-done
		if returned {
			c.rethrow()
		}
	}()
	g()
	returned = true
}
