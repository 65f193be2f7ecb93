package serve

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

func tableSession(id string, at time.Time) *Session {
	return newSession(id, SchemeND, nil, at)
}

func TestTableShardCountRoundsUp(t *testing.T) {
	for _, tc := range []struct{ in, want int }{
		{0, 1}, {1, 1}, {2, 2}, {3, 4}, {5, 8}, {64, 64}, {65, 128},
	} {
		if got := NewTable(tc.in, 0).Shards(); got != tc.want {
			t.Errorf("NewTable(%d).Shards() = %d, want %d", tc.in, got, tc.want)
		}
	}
}

func TestTableAdmissionCap(t *testing.T) {
	now := time.Now()
	tb := NewTable(4, 3)
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
	tb := NewTable(4, 0)
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
	tb := NewTable(8, 0)
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

// TestTableConcurrentAccess drives puts, gets, deletes and sweeps from
// many goroutines; run under -race this is the table's memory-safety
// proof.
func TestTableConcurrentAccess(t *testing.T) {
	tb := NewTable(8, 256)
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
