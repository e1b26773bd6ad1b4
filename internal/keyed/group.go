package keyed

import (
	"context"
	"errors"
	"sync"
)

// Group shares one run of a load among the concurrent callers that ask
// for the same key: the first caller runs it, and callers arriving
// while it runs wait for its result. The zero value is ready to use.
type Group[K comparable, V any] struct {
	mu    sync.Mutex
	calls map[K]*call[V]
}

// call is one run in progress; done closes once v and err are set.
type call[V any] struct {
	done chan struct{}
	v    V
	err  error
}

// ErrLoadPanicked is what waiters see when the run they waited for
// panicked instead of returning.
var ErrLoadPanicked = errors.New("keyed: shared load panicked")

// Do returns load's result for key, running load unless a run for key
// is in flight, in which case it waits for that run instead. A run
// that failed with its own caller's context error is not shared: a
// waiter whose ctx is still live runs load itself. A waiter gives up
// with ctx's error when ctx ends first. A run can end between a
// caller's own lookup and its call to Do, so load must first look for
// a result stored by an earlier run.
func (g *Group[K, V]) Do(ctx context.Context, key K, load func() (V, error)) (V, error) {
	for {
		g.mu.Lock()
		c, ok := g.calls[key]
		if !ok {
			break // still g.mu-locked: become the key's run below
		}
		g.mu.Unlock()
		select {
		case <-c.done:
		case <-ctx.Done():
			var zero V
			return zero, ctx.Err()
		}
		if !isContextErr(c.err) || ctx.Err() != nil {
			return c.v, c.err
		}
	}
	// Until load returns, the run's outcome is a panic.
	c := &call[V]{done: make(chan struct{}), err: ErrLoadPanicked}
	if g.calls == nil {
		g.calls = make(map[K]*call[V])
	}
	g.calls[key] = c
	g.mu.Unlock()
	defer func() {
		g.mu.Lock()
		delete(g.calls, key)
		g.mu.Unlock()
		close(c.done)
	}()
	c.v, c.err = load()
	return c.v, c.err
}

// InFlight returns the number of keys whose load is running.
func (g *Group[K, V]) InFlight() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return len(g.calls)
}

// isContextErr reports whether err came from a cancelled or expired
// context.
func isContextErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}
