package main

import (
	"testing"
	"time"

	"osap/internal/serve"
	"osap/internal/serve/loadgen"
	"osap/internal/trace"
)

// TestChaosSmallScale runs the full fault-injection harness at a
// CI-friendly scale, for both scripts over both transports: scripted
// inference panics and NaN/Inf scores, injected 503s and delays, slow
// and aborting clients, the recovery pattern cycle, the seeded script
// under probation, every demoted flag against the replay, exact totals
// on /metrics, /healthz and /dashboard, and a clean drain. The
// full-scale run is `make chaos`.
func TestChaosSmallScale(t *testing.T) {
	if testing.Short() {
		t.Skip("drives a loopback viewer fleet")
	}
	for _, tc := range []struct {
		name, script         string
		readmitL, readmitCap int
	}{
		{"chaos", scriptChaos, 0, 0},
		{"chaos-probation", scriptChaos, 4, 2},
		{"recovery", scriptRecovery, 0, 0},
	} {
		for _, transport := range []string{loadgen.ProtocolHTTP, loadgen.ProtocolBinary} {
			t.Run(tc.name+"-"+transport, func(t *testing.T) {
				cfg := serve.Config{MaxSessions: 100, Shards: 16, SessionTTL: time.Minute}
				if err := runChaos(cfg, tc.readmitL, tc.readmitCap, trace.DatasetGamma22, 60, 24, 7, tc.script, transport); err != nil {
					t.Fatalf("%s selftest: %v", tc.name, err)
				}
			})
		}
	}
}
