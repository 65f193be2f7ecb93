package serve

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"osap/internal/learn"
)

// stallBody is a request body whose first Read signals entered and
// then waits for release: the handler reading it has passed everything
// it does before the body.
type stallBody struct {
	entered, release chan struct{}
	once             sync.Once
	r                io.Reader
}

func (b *stallBody) Read(p []byte) (int, error) {
	b.once.Do(func() {
		close(b.entered)
		<-b.release
	})
	return b.r.Read(p)
}

// TestLearnRefitRacingDrain interleaves refits with Drain. Every refit
// either is refused with 503 or ran before Drain's barrier, so the
// final snapshot's refits + refit failures equal the refits not
// answered 503, and nothing is counted after it. One refit passes the
// first draining check and stalls in its body until the snapshot is
// written: it must be refused under the gate, not run after Drain.
func TestLearnRefitRacingDrain(t *testing.T) {
	arts := sharedArtifacts(t)
	f, err := NewGuardFactory(arts, GuardConfig{})
	if err != nil {
		t.Fatal(err)
	}
	learner, err := learn.New(learn.Config{Artifacts: arts, FlushInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer learner.Stop() //nolint:errcheck // no log configured
	srv, err := NewServer(f, Config{Learner: learner})
	if err != nil {
		t.Fatal(err)
	}
	refit := func(body io.Reader) int {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/admin/learn", body))
		return rec.Code
	}

	stalled := &stallBody{entered: make(chan struct{}), release: make(chan struct{}), r: strings.NewReader(`{"action":"refit"}`)}
	stalledCode := make(chan int, 1)
	go func() { stalledCode <- refit(stalled) }()
	<-stalled.entered

	var answered atomic.Uint64
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for refit(strings.NewReader(`{"action":"refit"}`)) != http.StatusServiceUnavailable {
				answered.Add(1)
			}
		}()
	}
	var snap strings.Builder
	if err := srv.Drain(t.Context(), &snap); err != nil {
		t.Fatalf("drain: %v", err)
	}
	close(stalled.release)
	wg.Wait()
	if code := <-stalledCode; code != http.StatusServiceUnavailable {
		t.Fatalf("a refit that passed the first draining check before Drain answered %d after it, want 503", code)
	}

	var refits, failures uint64
	for _, line := range strings.Split(snap.String(), "\n") {
		fmt.Sscanf(line, "osap_learn_refits_total %d", &refits)           //nolint:errcheck // other lines do not match
		fmt.Sscanf(line, "osap_learn_refit_failures_total %d", &failures) //nolint:errcheck // other lines do not match
	}
	if got, want := refits+failures, answered.Load(); got != want {
		t.Fatalf("final snapshot counts %d refits + %d failures = %d, want the %d refits not answered 503", refits, failures, got, want)
	}
	c := learner.Counters()
	if got := c.Refits.Load() + c.RefitFailures.Load(); got != refits+failures {
		t.Fatalf("%d refits counted in all, %d in the final snapshot: a refit ran after Drain", got, refits+failures)
	}
}
