// Package lockfix seeds blocking-under-lock and lock-order defects.
package lockfix

import (
	"net/http"
	"os"
	"sync"
	"time"
)

type server struct {
	mu    sync.Mutex
	cmu   sync.Mutex
	queue chan int
	n     int
}

// sendUnderLock blocks on a channel send with mu held.
func (s *server) sendUnderLock(v int) {
	s.mu.Lock()
	s.queue <- v // want "channel send while holding server.mu"
	s.mu.Unlock()
}

// sleepUnderLock: the deferred unlock keeps mu held to the end of the
// body, so the sleep happens under it.
func (s *server) sleepUnderLock() {
	s.mu.Lock()
	defer s.mu.Unlock()
	time.Sleep(time.Millisecond) // want "time.Sleep .sleep. while holding server.mu"
}

// httpUnderLock holds the lock across a network round trip.
func (s *server) httpUnderLock(c *http.Client, req *http.Request) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	resp, err := c.Do(req) // want "http. while holding server.mu"
	if err != nil {
		return err
	}
	return resp.Body.Close()
}

func persist(f *os.File) error {
	return f.Sync()
}

// fsyncUnderLock reaches the disk barrier through a callee; the
// transitive summary carries it to the call site.
func (s *server) fsyncUnderLock(f *os.File) {
	s.mu.Lock()
	_ = persist(f) // want "call to lockfix.persist, which blocks"
	s.mu.Unlock()
}

// log is a generic type; calls through an instantiation resolve to
// the declared method's summary.
type log[R any] struct{ f *os.File }

func (l *log[R]) append(rec R) error {
	return l.f.Sync()
}

// fsyncViaGeneric reaches the disk barrier through a method of an
// instantiated generic type.
func (s *server) fsyncViaGeneric(l *log[int]) {
	s.mu.Lock()
	_ = l.append(1) // want "which blocks"
	s.mu.Unlock()
}

// branchLocal: an acquisition inside a branch must not leak into the
// fall-through path — the send below is lock-free.
func (s *server) branchLocal(cond bool, v int) {
	if cond {
		s.mu.Lock()
		s.n++
		s.mu.Unlock()
	}
	s.queue <- v
}

// releaseFirst shrinks the critical section the way the analyzer asks.
func (s *server) releaseFirst(v int) {
	s.mu.Lock()
	s.n++
	s.mu.Unlock()
	s.queue <- v
}

// pollUnderLock: a select with a default clause is a non-blocking
// poll; its comm receive must not be flagged on its own.
func (s *server) pollUnderLock(stop chan struct{}) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	select {
	case <-stop:
		return true
	default:
		return false
	}
}

// waitUnderLock: the same shape without the default blocks for real.
func (s *server) waitUnderLock(stop chan struct{}) {
	s.mu.Lock()
	defer s.mu.Unlock()
	select { // want "select while holding server.mu"
	case <-stop:
	case v := <-s.queue:
		s.n += v
	}
}

// lockAB and lockBA disagree on the order of mu and cmu: a deadlock
// waiting for contention, flagged at both establishing sites.
func (s *server) lockAB() {
	s.mu.Lock()
	s.cmu.Lock() // want "lock order inversion"
	s.n++
	s.cmu.Unlock()
	s.mu.Unlock()
}

func (s *server) lockBA() {
	s.cmu.Lock()
	s.mu.Lock() // want "lock order inversion"
	s.n++
	s.mu.Unlock()
	s.cmu.Unlock()
}

type registry struct {
	rmu     sync.Mutex
	jmu     sync.Mutex
	entries int
}

func (r *registry) appendEntry() {
	r.jmu.Lock()
	r.entries++
	r.jmu.Unlock()
}

// viaCallee acquires jmu through appendEntry while holding rmu: the
// callee summary feeds the pair map, so the inversion against
// reversed() is caught interprocedurally.
func (r *registry) viaCallee() {
	r.rmu.Lock()
	r.appendEntry() // want "lock order inversion"
	r.rmu.Unlock()
}

func (r *registry) reversed() {
	r.jmu.Lock()
	r.rmu.Lock() // want "lock order inversion"
	r.entries++
	r.rmu.Unlock()
	r.jmu.Unlock()
}
