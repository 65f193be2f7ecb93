package serve

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

func tableSession(id string, at time.Time) *Session {
	return newSession(id, SchemeND, nil, at)
}

func TestTableAdmissionCap(t *testing.T) {
	now := time.Now()
	tb := NewTable(3)
	for i := 0; i < 3; i++ {
		if err := tb.Put(tableSession(fmt.Sprintf("s%d", i), now)); err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
	}
	if err := tb.Put(tableSession("s3", now)); !errors.Is(err, ErrTableFull) {
		t.Fatalf("put past cap: err = %v, want ErrTableFull", err)
	}
	if tb.Len() != 3 {
		t.Fatalf("Len = %d after rejected put, want 3", tb.Len())
	}
	// Deleting reopens capacity.
	if _, ok := tb.Delete("s1"); !ok {
		t.Fatal("delete s1 failed")
	}
	if err := tb.Put(tableSession("s3", now)); err != nil {
		t.Fatalf("put after delete: %v", err)
	}
	if _, ok := tb.Get("s3"); !ok {
		t.Fatal("s3 not found after put")
	}
}

func TestTableDuplicateID(t *testing.T) {
	now := time.Now()
	tb := NewTable(0)
	if err := tb.Put(tableSession("dup", now)); err != nil {
		t.Fatal(err)
	}
	if err := tb.Put(tableSession("dup", now)); err == nil {
		t.Fatal("duplicate put succeeded")
	}
	if tb.Len() != 1 {
		t.Fatalf("Len = %d after duplicate rejection, want 1", tb.Len())
	}
}

func TestTableSweepEvictsOnlyIdle(t *testing.T) {
	base := time.Now()
	tb := NewTable(0)
	stale := tableSession("stale", base.Add(-time.Hour))
	fresh := tableSession("fresh", base)
	if err := tb.Put(stale); err != nil {
		t.Fatal(err)
	}
	if err := tb.Put(fresh); err != nil {
		t.Fatal(err)
	}
	if n := tb.Sweep(base.Add(-time.Minute)); n != 1 {
		t.Fatalf("Sweep evicted %d, want 1", n)
	}
	if _, ok := tb.Get("stale"); ok {
		t.Error("stale session survived the sweep")
	}
	if _, ok := tb.Get("fresh"); !ok {
		t.Error("fresh session was evicted")
	}
	// The evicted session is closed: steps on a stale handle fail.
	if _, err := stale.Step(nil, base); !errors.Is(err, ErrSessionClosed) {
		t.Errorf("step on evicted session: err = %v, want ErrSessionClosed", err)
	}
}

// TestTableSweepSparesSteppedSession holds a session's lock as a step
// does, lets a sweep find the session stale and wait on that lock, and
// stamps the session fresh before letting go, as the step does. The
// sweep decides under the session's lock, so it sees the fresh stamp:
// the session is neither closed nor removed.
func TestTableSweepSparesSteppedSession(t *testing.T) {
	base := time.Now()
	tb := NewTable(0)
	s := tableSession("s", base.Add(-time.Hour))
	if err := tb.Put(s); err != nil {
		t.Fatal(err)
	}
	s.mu.Lock()
	swept := make(chan int)
	go func() { swept <- tb.Sweep(base.Add(-time.Minute)) }()
	for start := time.Now(); !sweepWaitsOnMutex(); time.Sleep(time.Millisecond) {
		if time.Since(start) > 10*time.Second {
			s.mu.Unlock()
			t.Fatal("the sweep never waited on the session's lock")
		}
	}
	s.lastUsed.Store(base.UnixNano())
	s.mu.Unlock()
	n := <-swept
	s.mu.Lock()
	closed := s.closed
	s.mu.Unlock()
	if n != 0 || closed {
		t.Fatalf("sweep evicted %d, session closed=%v", n, closed)
	}
	if _, ok := tb.Get("s"); !ok {
		t.Fatal("the stepped session left the table")
	}
}

// sweepWaitsOnMutex reports whether a goroutine inside Table.Sweep is
// waiting for a mutex.
func sweepWaitsOnMutex() bool {
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	for _, g := range strings.Split(string(buf), "\n\n") {
		if strings.Contains(g, "serve.(*Table).Sweep") && strings.Contains(g, "sync.(*Mutex).lockSlow") {
			return true
		}
	}
	return false
}

// TestTableConcurrentAccess drives puts, gets, deletes and sweeps from
// many goroutines; run under -race this is the table's memory-safety
// proof.
func TestTableConcurrentAccess(t *testing.T) {
	tb := NewTable(256)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				id := fmt.Sprintf("w%d-%d", w, i)
				if err := tb.Put(tableSession(id, time.Now())); err != nil {
					continue
				}
				tb.Get(id)
				if i%3 == 0 {
					tb.Delete(id)
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			tb.Sweep(time.Now().Add(-time.Hour)) // nothing is that old
		}
	}()
	wg.Wait()
	if tb.Len() < 0 || tb.Len() > 256 {
		t.Fatalf("Len = %d out of range after concurrent churn", tb.Len())
	}
	n := tb.Len()
	if cleared := tb.Clear(); cleared != n {
		t.Fatalf("Clear removed %d, want %d", cleared, n)
	}
	if tb.Len() != 0 {
		t.Fatalf("Len = %d after Clear, want 0", tb.Len())
	}
}
