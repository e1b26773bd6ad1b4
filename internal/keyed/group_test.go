package keyed

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// Concurrent misses on one key run the load exactly once and all see
// its result. Run under -race this also checks the hand-off of v.
func TestGroupLoadsOnce(t *testing.T) {
	var g Group[string, []int]
	var loads atomic.Int32
	entered := make(chan struct{})
	release := make(chan struct{})
	load := func() ([]int, error) {
		if loads.Add(1) == 1 {
			close(entered)
		}
		<-release // hold the run open until every caller has arrived
		return []int{1, 2, 3}, nil
	}
	const callers = 8
	results := make([][]int, callers)
	errs := make([]error, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = g.Do(context.Background(), "k", load)
		}(i)
	}
	<-entered
	if n := g.InFlight(); n != 1 {
		t.Errorf("InFlight = %d while one load runs, want 1", n)
	}
	// Let the other callers reach the wait before the run ends.
	time.Sleep(50 * time.Millisecond)
	close(release)
	wg.Wait()
	if n := loads.Load(); n != 1 {
		t.Fatalf("%d concurrent callers ran %d loads, want 1", callers, n)
	}
	for i := range results {
		if errs[i] != nil || len(results[i]) != 3 {
			t.Fatalf("caller %d: %v, %v", i, results[i], errs[i])
		}
	}
	if n := g.InFlight(); n != 0 {
		t.Errorf("InFlight = %d after the run, want 0", n)
	}
}

// A run that ends with its own caller's context error is not handed to
// a waiter whose context is live: the waiter loads again.
func TestGroupLeaderContextErrorNotShared(t *testing.T) {
	var g Group[string, int]
	var loads atomic.Int32
	var waiter sync.WaitGroup
	var got int
	var waitErr error
	_, err := g.Do(context.Background(), "k", func() (int, error) {
		loads.Add(1)
		waiter.Add(1)
		go func() {
			defer waiter.Done()
			got, waitErr = g.Do(context.Background(), "k", func() (int, error) {
				loads.Add(1)
				return 7, nil
			})
		}()
		time.Sleep(50 * time.Millisecond) // let the waiter join this run
		return 0, context.Canceled
	})
	waiter.Wait()
	if !errors.Is(err, context.Canceled) || waitErr != nil || got != 7 {
		t.Fatalf("cancelled loader got %v, live waiter got %d, %v; want context.Canceled and 7, nil", err, got, waitErr)
	}
	if n := loads.Load(); n != 2 {
		t.Fatalf("%d loads, want 2 (the waiter reloads)", n)
	}
}

// A waiter whose own context ends first gives up with its context's
// error while the run goes on.
func TestGroupWaiterContextEnds(t *testing.T) {
	var g Group[string, int]
	entered := make(chan struct{})
	release := make(chan struct{})
	done := make(chan error)
	go func() {
		_, err := g.Do(context.Background(), "k", func() (int, error) {
			close(entered)
			<-release
			return 1, nil
		})
		done <- err
	}()
	<-entered
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := g.Do(ctx, "k", func() (int, error) { return 2, nil }); err != context.Canceled {
		t.Fatalf("cancelled waiter got %v, want context.Canceled", err)
	}
	close(release)
	if err := <-done; err != nil {
		t.Fatalf("leader got %v", err)
	}
}

// A load that panics still releases its waiters, with ErrLoadPanicked,
// and leaves the key free for the next caller.
func TestGroupPanickingLoadReleasesWaiters(t *testing.T) {
	var g Group[string, int]
	entered := make(chan struct{})
	release := make(chan struct{})
	recovered := make(chan any)
	go func() {
		defer func() { recovered <- recover() }()
		g.Do(context.Background(), "k", func() (int, error) { //nolint:errcheck // the load panics
			close(entered)
			<-release
			panic("boom")
		})
	}()
	<-entered
	waitErr := make(chan error)
	go func() {
		_, err := g.Do(context.Background(), "k", func() (int, error) { return 1, nil })
		waitErr <- err
	}()
	time.Sleep(50 * time.Millisecond) // let the waiter join the run
	close(release)
	if r := <-recovered; r != "boom" {
		t.Fatalf("leader recovered %v, want the load's panic", r)
	}
	if err := <-waitErr; !errors.Is(err, ErrLoadPanicked) {
		t.Fatalf("waiter got %v, want ErrLoadPanicked", err)
	}
	if v, err := g.Do(context.Background(), "k", func() (int, error) { return 5, nil }); err != nil || v != 5 {
		t.Fatalf("after the panic Do = %d, %v; want a fresh run", v, err)
	}
}
