// Package locks exercises the lockcheck analyzer: guarded field access,
// //stash:locked preconditions, unlock discipline, the declared lock order
// and the typed-atomics rule.
package locks

import (
	"sync"
	"sync/atomic"
)

//stash:lockorder Registry.mu < Session.mu

// Registry owns sessions; its mutex also guards fields of the values it
// owns (Session.slot), the pattern the runner's LRU cache uses.
type Registry struct {
	mu sync.Mutex
	//stash:guardedby mu
	sessions map[string]*Session
}

type Session struct {
	mu sync.Mutex
	//stash:guardedby mu
	state string
	//stash:guardedby Registry.mu
	slot int
}

func (r *Registry) lookup(key string) *Session {
	r.mu.Lock()
	s := r.sessions[key]
	r.mu.Unlock()
	return s
}

func (r *Registry) unguarded(key string) *Session {
	return r.sessions[key] // want `sessions is guarded by mu`
}

func (r *Registry) suppressed(key string) *Session {
	//stash:ignore lockcheck the result is re-validated under the lock by every caller
	return r.sessions[key]
}

// addLocked is the precondition pattern: the body is checked with mu held.
//
//stash:locked mu
func (r *Registry) addLocked(key string, s *Session) {
	r.sessions[key] = s
}

func (r *Registry) add(key string, s *Session) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.addLocked(key, s)
}

func (r *Registry) addUnlocked(key string, s *Session) {
	r.addLocked(key, s) // want `call to addLocked requires mu held`
}

// publish is the deferred-unlock-with-early-return pattern: clean.
func (r *Registry) publish(key string, s *Session) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.sessions[key]; ok {
		return
	}
	r.sessions[key] = s
}

// relabel nests the locks in the declared order and satisfies both guard
// forms: state under its sibling mu, slot under the owning Registry's mu.
func (r *Registry) relabel(s *Session) {
	r.mu.Lock()
	s.mu.Lock()
	s.state = "relabeled"
	s.slot = 1
	s.mu.Unlock()
	r.mu.Unlock()
}

func (s *Session) badOrder(r *Registry) {
	s.mu.Lock()
	r.mu.Lock() // want `lock order violation: acquiring Registry.mu while holding Session.mu`
	r.mu.Unlock()
	s.mu.Unlock()
}

func (s *Session) doubleLock() {
	s.mu.Lock()
	s.mu.Lock() // want `already locked here`
	s.mu.Unlock()
}

func (s *Session) doubleUnlock() {
	s.mu.Lock()
	s.mu.Unlock()
	s.mu.Unlock() // want `not held on every path`
}

func (s *Session) unlockOnSomePathsOnly(drop bool) {
	s.mu.Lock()
	if drop {
		s.mu.Unlock()
	}
	s.mu.Unlock() // want `not held on every path`
}

func (s *Session) heldAtReturn(fast bool) {
	s.mu.Lock()
	if fast {
		return // want `s.mu still locked at return`
	}
	s.mu.Unlock()
}

func (s *Session) heldAtEnd() {
	s.mu.Lock()
	s.state = "wedged"
} // want `s.mu still locked at return`

// goroutines never inherit the spawner's locks.
func (s *Session) leakToGoroutine() {
	s.mu.Lock()
	go func() {
		s.state = "async" // want `state is guarded by mu`
	}()
	s.mu.Unlock()
}

// cacheStats is the embedded-mutex global pattern (trace's memo table);
// balanced locking through the promoted methods is clean.
var cacheStats struct {
	sync.Mutex
	hits int
}

func bumpHits() {
	cacheStats.Lock()
	cacheStats.hits++
	cacheStats.Unlock()
}

// Function-style sync/atomic lets a counter be written bare on one path and
// atomically on another; a typed atomic admits no bare access at all.
var requests int64

func countRequest() {
	atomic.AddInt64(&requests, 1) // want `function-style atomic.AddInt64`
}

type meter struct {
	requests atomic.Int64
}

func (m *meter) countRequest() int64 {
	m.requests.Add(1)
	return m.requests.Load()
}
