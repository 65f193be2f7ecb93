package serve

// The shard. Every session of a generation shares one packed artifact
// set, so the scratch a forward computes in — a one-row workspace per
// network (rl.Scratch) — is nothing a session needs a copy of. A shard
// is that scratch, the drift sketches of the steps run on it, and the
// one mutex that guards both and the shard's sessions. createSession
// assigns each new session a shard, round-robin over the generation's
// GOMAXPROCS shards, builds the session's guard on the shard's scratch
// and points the session's lock at the shard's.
//
// Every step follows one path, whatever the scheme and whether chaos
// wrapped the signal: take the shard's lock; Session.stepLocked runs
// decide (the step's one recover) → core.Guard.Decide → settleLocked;
// add the score to the shard's sketch; let go. A forward that faults
// panics inside Guard.Decide, and decide latches the session that ran
// it onto the default policy (modeLatchedFault). Nothing in the scratch
// outlives a forward — each one rewrites every buffer it reads — so the
// next session on the shard decides as if the fault never happened.
// Two operations wait on each other only when their sessions share a
// shard and they arrive in the same instant.

import (
	"runtime"
	"sync"

	"osap/internal/rl"
	"osap/internal/sketch"
)

// shard is one lock and what it guards: the forward scratch, the drift
// sketches, and the sessions on the shard (Session.mu).
type shard struct {
	mu      sync.Mutex
	scratch *rl.Scratch
	// drift holds one guard-score sketch per signal, fed by the live
	// steps run on this shard (Server.step).
	drift [driftSignals]*sketch.Sketch //osap:guardedby mu
}

// newShards builds GOMAXPROCS shards over f's packed networks.
func newShards(f *GuardFactory) []*shard {
	shards := make([]*shard, runtime.GOMAXPROCS(0))
	for i := range shards {
		sh := &shard{scratch: f.frozen.NewScratch()}
		for j := range sh.drift { //osap:ignore guardedby construction: the shard is not shared yet
			sh.drift[j] = sketch.New(sketch.DefaultCompression)
		}
		shards[i] = sh
	}
	return shards
}

// driftSignals is the number of tracked guard-score signals.
const driftSignals = 3

// driftSignalNames label the sketch families on /metrics and
// /dashboard, indexed by the session's sigIdx.
var driftSignalNames = [driftSignals]string{"state", "policy", "value"}

// driftSignalIndex maps a session scheme to its signal family: the
// paper's U_S / U_π / U_V.
func driftSignalIndex(scheme string) uint8 {
	switch scheme {
	case SchemeAEns:
		return 1
	case SchemeVEns:
		return 2
	default:
		return 0
	}
}

// drift folds every shard's sketch for one signal into a fresh sketch,
// in ascending shard order, so two scrapes over the same history are
// bit-identical (internal/sketch's determinism contract).
func (g *Generation) drift(sig int) *sketch.Sketch {
	out := sketch.New(sketch.DefaultCompression)
	for _, sh := range g.shards {
		sh.mu.Lock()
		sh.drift[sig].MergeInto(out)
		sh.mu.Unlock()
	}
	return out
}
