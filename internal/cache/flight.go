package cache

import "sync"

// Flight collapses concurrent identical submissions: the first submitter of
// a digest becomes the leader and registers its job ID; every later
// submitter of the same digest, for as long as the leader's job is in
// flight, is handed that ID and attaches to the existing job instead of
// enqueueing a duplicate. The service ends a flight when the job reaches a
// terminal state (successful results then come from the cache instead).
//
// It is deliberately an ID map rather than a result-bearing singleflight:
// the attached caller needs the live job — its stream, its progress, its
// cancellation — not just the eventual value.
type Flight struct {
	mu      sync.Mutex
	leaders map[string]string // digest -> in-flight job ID
}

// NewFlight returns an empty flight map.
func NewFlight() *Flight {
	return &Flight{leaders: make(map[string]string)}
}

// Begin registers id as the leader for key if none is in flight, returning
// (id, true). Otherwise it returns the current leader's ID and false.
func (f *Flight) Begin(key, id string) (leader string, isLeader bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if cur, ok := f.leaders[key]; ok {
		return cur, false
	}
	f.leaders[key] = id
	return id, true
}

// Leader returns the in-flight leader's ID for key, if any.
func (f *Flight) Leader(key string) (string, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	id, ok := f.leaders[key]
	return id, ok
}

// End releases key if id leads it. Every job of a digest calls it once
// terminal, whether it led or not, so only the leader's call frees the
// slot; ending an unknown key, or a key another job leads, is a no-op.
func (f *Flight) End(key, id string) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.leaders[key] == id {
		delete(f.leaders, key)
	}
}

// Len returns the number of in-flight keys.
func (f *Flight) Len() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.leaders)
}
