// Package pool provides the repository's shared fixed-size worker pool. It
// sits below every fan-out layer — the m3 estimator's per-path simulations,
// Parsimon's per-link simulations, training-set generation, and the serving
// layer's concurrent estimates — so all ground-truth and estimation work
// divides the machine's cores through one mechanism instead of each caller
// spawning its own goroutine-per-item pattern.
package pool

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
)

// PanicError is a panic recovered from a worker task, converted into an
// error so one panicking per-path simulation fails its run instead of
// killing the process. Value is the recovered panic value and Stack the
// goroutine stack captured at the recovery point.
type PanicError struct {
	Value any
	Stack []byte
}

// Error implements the error interface.
func (e *PanicError) Error() string {
	return fmt.Sprintf("pool: task panicked: %v\n%s", e.Value, e.Stack)
}

// Pool is a fixed-size worker pool. A long-lived process (the estimation
// service) creates one Pool and points every Estimator at it, so concurrent
// estimates share the machine's cores instead of each fanning out
// GOMAXPROCS goroutines and oversubscribing the scheduler.
type Pool struct {
	tasks     chan func()
	workers   int
	closeOnce sync.Once
	wg        sync.WaitGroup
}

// New starts a pool with the given worker count (<= 0 means GOMAXPROCS).
// Close it when done to release the worker goroutines.
func New(workers int) *Pool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	p := &Pool{tasks: make(chan func()), workers: workers}
	p.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go func() {
			defer p.wg.Done()
			for f := range p.tasks {
				f()
			}
		}()
	}
	return p
}

// Workers returns the pool's worker count.
func (p *Pool) Workers() int { return p.workers }

// Close stops the workers after draining queued tasks. Concurrent Run calls
// must have returned; Close is idempotent.
func (p *Pool) Close() {
	p.closeOnce.Do(func() { close(p.tasks) })
	p.wg.Wait()
}

// call invokes fn(i) with panic isolation: a panic inside the task is
// recovered, stamped with the stack, and returned as a *PanicError, so a
// crashing simulation cancels its own Run without unwinding the worker
// goroutine (which is shared by every other run on the pool).
func call(ctx context.Context, i int, fn func(ctx context.Context, i int) error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &PanicError{Value: r, Stack: debug.Stack()}
		}
	}()
	return fn(ctx, i)
}

// Run executes fn(0..n-1) on the pool and blocks until all started indices
// finish. Indices are submitted one at a time (never one goroutine per
// item), so a huge fan-out queues instead of oversubscribing. The first
// error cancels the remainder: unstarted indices are skipped and fn's ctx
// is done, so in-flight simulations abort early. Run returns the first
// fn error, or ctx.Err() when the caller's context ended the run. A panic
// in fn is recovered and returned as a *PanicError instead of crashing the
// process; the pool remains usable afterwards.
func (p *Pool) Run(ctx context.Context, n int, fn func(ctx context.Context, i int) error) error {
	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	var (
		wg       sync.WaitGroup
		once     sync.Once
		firstErr error
	)
	fail := func(err error) {
		once.Do(func() {
			firstErr = err
			cancel()
		})
	}
	task := func(i int) func() {
		return func() {
			defer wg.Done()
			if runCtx.Err() != nil {
				return
			}
			if err := call(runCtx, i, fn); err != nil {
				fail(err)
			}
		}
	}
submit:
	for i := 0; i < n; i++ {
		wg.Add(1)
		select {
		case p.tasks <- task(i):
		case <-runCtx.Done():
			wg.Done()
			break submit
		}
	}
	wg.Wait()
	if firstErr != nil {
		return firstErr
	}
	return ctx.Err()
}
