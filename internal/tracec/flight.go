package tracec

import (
	"context"
	"errors"
	"sync"
)

// flights shares one run of a load among the concurrent callers that
// ask for the same key: the first caller runs it, and callers arriving
// while it runs wait for its result. The store's compiles and the
// executor's segment loads both go through one. The zero value is
// ready to use.
type flights[V any] struct {
	mu    sync.Mutex
	calls map[string]*flight[V]
}

// flight is one run in progress; done closes once v and err are set.
type flight[V any] struct {
	done chan struct{}
	v    V
	err  error
}

// errLoadPanicked is what waiters see when the run they waited for
// panicked instead of returning.
var errLoadPanicked = errors.New("tracec: shared load panicked")

// do returns load's result for key, running load unless a run for key
// is in flight, in which case it waits for that run instead. A run
// that failed with its own caller's context error is not shared: a
// waiter whose ctx is still live runs load itself. A waiter gives up
// with ctx's error when ctx ends first. A run can end between a
// caller's own lookup and its call to do, so load must first look for
// a result stored by an earlier run.
func (g *flights[V]) do(ctx context.Context, key string, load func() (V, error)) (V, error) {
	for {
		g.mu.Lock()
		f, ok := g.calls[key]
		if !ok {
			break // still g.mu-locked: become the key's run below
		}
		g.mu.Unlock()
		select {
		case <-f.done:
		case <-ctx.Done():
			var zero V
			return zero, ctx.Err()
		}
		if !isContextErr(f.err) || ctx.Err() != nil {
			return f.v, f.err
		}
	}
	// Until load returns, the run's outcome is a panic.
	f := &flight[V]{done: make(chan struct{}), err: errLoadPanicked}
	if g.calls == nil {
		g.calls = make(map[string]*flight[V])
	}
	g.calls[key] = f
	g.mu.Unlock()
	defer func() {
		g.mu.Lock()
		delete(g.calls, key)
		g.mu.Unlock()
		close(f.done)
	}()
	f.v, f.err = load()
	return f.v, f.err
}

// isContextErr reports whether err came from a cancelled or expired
// context.
func isContextErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}
