// Package mutexcopy seeds lock copies for go vet's copylocks check
// (TestGoVetCopiesLocks).
package mutexcopy

import "sync"

type shard struct {
	mu sync.Mutex
	m  map[string]int
}

type registry struct {
	shards []shard
}

// sum trips the range-over-slice-of-shards trap.
func sum(r *registry) int {
	total := 0
	for _, sh := range r.shards {
		total += len(sh.m)
	}
	return total
}

// sumOK iterates by index and takes pointers: clean.
func sumOK(r *registry) int {
	total := 0
	for i := range r.shards {
		sh := &r.shards[i]
		sh.mu.Lock()
		total += len(sh.m)
		sh.mu.Unlock()
	}
	return total
}

// dup copies a live shard through a dereference.
func dup(s *shard) {
	clone := *s
	clone.m = nil
}

// lock passes a shard by value.
func lock(s shard) int { return len(s.m) }

// size copies the shard into a value receiver.
func (s shard) size() int { return len(s.m) }

// frozen passes a shard by value too. go vet has no suppression
// directive, so a by-value parameter is reported however it is
// annotated.
func frozen(s shard) int { return len(s.m) }

// fresh returns a new shard by value: no held lock is copied, and go
// vet reports nothing.
func fresh() shard { return shard{m: map[string]int{}} }
