package loadgen_test

import (
	"context"
	"io"
	"net"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"osap/internal/abr"
	"osap/internal/experiments"
	"osap/internal/serve"
	"osap/internal/serve/loadgen"
	"osap/internal/stats"
	"osap/internal/trace"
)

func testTraces(t *testing.T, n int) []*trace.Trace {
	t.Helper()
	gen := trace.Norway3G()
	rng := stats.NewRNG(99)
	out := make([]*trace.Trace, n)
	for i := range out {
		out[i] = gen.Generate(rng, 120)
	}
	return out
}

var (
	servedOnce sync.Once
	served     *experiments.Artifacts
	servedErr  error
)

// servedArtifacts loads the committed paper-scale Norway set osap-serve
// serves, once per test binary.
func servedArtifacts(t *testing.T) *experiments.Artifacts {
	t.Helper()
	servedOnce.Do(func() { served, servedErr = experiments.LoadArtifacts("../../../cmd/osap-serve/testdata/norway.json") })
	if servedErr != nil {
		t.Fatal(servedErr)
	}
	return served
}

func startServer(t *testing.T, cfg serve.Config) (*serve.Server, *httptest.Server) {
	t.Helper()
	f, err := serve.NewGuardFactory(servedArtifacts(t), serve.GuardConfig{})
	if err != nil {
		t.Fatal(err)
	}
	s, err := serve.NewServer(f, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	return s, ts
}

func TestLoadgenBoundedRun(t *testing.T) {
	s, ts := startServer(t, serve.Config{})
	video := abr.SyntheticVideo(1, 24, 4)
	res, err := loadgen.Run(t.Context(), loadgen.Config{
		BaseURL:        ts.URL,
		Clients:        20,
		StepsPerClient: 10,
		Schemes:        []string{serve.SchemeND, serve.SchemeAEns, serve.SchemeVEns},
		Video:          video,
		Traces:         testTraces(t, 4),
		Seed:           42,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.SessionsCreated != 20 {
		t.Errorf("sessions created = %d, want 20", res.SessionsCreated)
	}
	if res.StepsOK != 200 {
		t.Errorf("steps ok = %d, want 200", res.StepsOK)
	}
	if res.StepsDropped != 0 {
		t.Errorf("steps dropped = %d, want 0", res.StepsDropped)
	}
	if got := s.Metrics().Decisions.Load(); got != 200 {
		t.Errorf("server decisions = %d, want 200", got)
	}
	if res.Throughput() <= 0 {
		t.Error("throughput not measured")
	}
	if p50, p99 := res.LatencyQuantile(0.5), res.LatencyQuantile(0.99); p50 <= 0 || p99 < p50 {
		t.Errorf("latency quantiles inconsistent: p50=%v p99=%v", p50, p99)
	}
}

// TestLoadgenBinaryScoreSink: a binary reply is booked by the same code
// as an HTTP one, so the score sink hears one score per non-demoted step
// over the binary protocol too.
func TestLoadgenBinaryScoreSink(t *testing.T) {
	s, _ := startServer(t, serve.Config{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go s.ServeBinary(ln) //nolint:errcheck // returns on drain + close
	t.Cleanup(func() {
		s.Drain(context.Background(), io.Discard) //nolint:errcheck // the run is over
		ln.Close()
	})
	scores := 0 // ScoreSink calls are serialized
	res, err := loadgen.Run(t.Context(), loadgen.Config{
		Protocol:       loadgen.ProtocolBinary,
		Addr:           ln.Addr().String(),
		Clients:        8,
		StepsPerClient: 10,
		Schemes:        []string{serve.SchemeND, serve.SchemeAEns},
		Video:          abr.SyntheticVideo(1, 24, 4),
		Traces:         testTraces(t, 2),
		Seed:           3,
		ScoreSink:      func(_ string, got []float64) { scores += len(got) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.StepsOK != 80 || res.StepsDropped != 0 {
		t.Fatalf("steps ok %d dropped %d, want 80 and 0", res.StepsOK, res.StepsDropped)
	}
	if want := res.StepsOK - res.StepsDemoted; int64(scores) != want || want == 0 {
		t.Fatalf("score sink heard %d scores, want one per non-demoted step: %d", scores, want)
	}
}

func TestLoadgenAdmissionRejection(t *testing.T) {
	_, ts := startServer(t, serve.Config{MaxSessions: 5})
	res, err := loadgen.Run(t.Context(), loadgen.Config{
		BaseURL:        ts.URL,
		Clients:        12,
		StepsPerClient: 3,
		Video:          abr.SyntheticVideo(1, 24, 4),
		Traces:         testTraces(t, 2),
		Seed:           1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.SessionsCreated != 5 {
		t.Errorf("sessions created = %d, want 5 (cap)", res.SessionsCreated)
	}
	if res.SessionsRejected != 7 {
		t.Errorf("sessions rejected = %d, want 7", res.SessionsRejected)
	}
	if res.StepsDropped != 0 {
		t.Errorf("steps dropped = %d, want 0", res.StepsDropped)
	}
}

// TestLoadgenGracefulDrainDropsNothing is the small-scale version of
// the load selftest's acceptance gate: clients step in an unbounded loop,
// the server drains mid-flight, and every step must either succeed or
// be refused by an explicit drain signal — never dropped.
func TestLoadgenGracefulDrainDropsNothing(t *testing.T) {
	s, ts := startServer(t, serve.Config{})
	done := make(chan *loadgen.Result, 1)
	errc := make(chan error, 1)
	go func() {
		res, err := loadgen.Run(context.Background(), loadgen.Config{
			BaseURL: ts.URL,
			Clients: 30,
			Video:   abr.SyntheticVideo(1, 24, 4),
			Traces:  testTraces(t, 2),
			Seed:    7,
		})
		errc <- err
		done <- res
	}()

	// Let the fleet reach steady state, then drain.
	deadline := time.Now().Add(5 * time.Second)
	for s.Metrics().Decisions.Load() < 300 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if err := s.Drain(t.Context(), io.Discard); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
	res := <-done
	if res.StepsOK < 300 {
		t.Errorf("steps ok = %d, want ≥ 300 before drain", res.StepsOK)
	}
	if res.StepsDropped != 0 {
		t.Errorf("steps dropped across graceful drain = %d, want 0", res.StepsDropped)
	}
	if res.StepsDrained == 0 {
		t.Error("no drain signals observed — drain raced past the fleet?")
	}
	// Server-side accounting agrees: every accepted step was served.
	if got := s.Metrics().Decisions.Load(); int64(got) != res.StepsOK {
		t.Errorf("server served %d steps, clients observed %d", got, res.StepsOK)
	}
}
