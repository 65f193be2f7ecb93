package main

import (
	"testing"
	"time"

	"osap/internal/serve"
	"osap/internal/trace"
)

// TestSelfTestSmallScale runs the full selftest harness — quick-scale
// training, loopback server, synthetic viewer fleet, graceful drain
// under load — at a CI-friendly scale.
func TestSelfTestSmallScale(t *testing.T) {
	if testing.Short() {
		t.Skip("trains quick-scale artifacts")
	}
	cfg := serve.Config{MaxSessions: 200, Shards: 16, SessionTTL: time.Minute}
	cells, err := runSelfTest(cfg, trace.DatasetGamma22, "", 40, 150*time.Millisecond, 250*time.Millisecond)
	if err != nil {
		t.Fatalf("selftest: %v", err)
	}
	if len(cells) < 2 {
		t.Fatalf("matrix has %d cells, want at least 1-proc http+binary", len(cells))
	}
	seen := map[string]bool{}
	for _, c := range cells {
		seen[c.transport] = true
		if c.res.SessionsCreated != 40 {
			t.Errorf("[%s/%d] sessions created = %d, want 40", c.transport, c.procs, c.res.SessionsCreated)
		}
		if c.res.StepsDropped != 0 {
			t.Errorf("[%s/%d] steps dropped = %d, want 0", c.transport, c.procs, c.res.StepsDropped)
		}
		if int64(c.decisions) != c.res.StepsOK {
			t.Errorf("[%s/%d] graceful shutdown not clean: server decided %d, clients acknowledged %d",
				c.transport, c.procs, c.decisions, c.res.StepsOK)
		}
		if c.stepsPerS <= 0 {
			t.Errorf("[%s/%d] throughput = %v, want > 0", c.transport, c.procs, c.stepsPerS)
		}
		if p50, p99 := c.res.LatencyQuantile(0.5), c.res.LatencyQuantile(0.99); p99 < p50 {
			t.Errorf("[%s/%d] p99 %v < p50 %v", c.transport, c.procs, p99, p50)
		}
		if c.batches != c.decisions || c.batchRows != float64(c.decisions) {
			t.Errorf("[%s/%d] osap_batch_size counted %d batches of %g rows for %d decisions, want one row per decision",
				c.transport, c.procs, c.batches, c.batchRows, c.decisions)
		}
	}
	if !seen["http"] || !seen["binary"] {
		t.Errorf("matrix missing a transport: %v", seen)
	}
}

func TestLoadFactoryUnknownDataset(t *testing.T) {
	if _, err := loadFactory("not-a-dataset", ""); err == nil {
		t.Fatal("unknown dataset accepted")
	}
}
