package serve

import (
	"fmt"

	"osap/internal/core"
	"osap/internal/experiments"
	"osap/internal/nn"
	"osap/internal/ocsvm"
	"osap/internal/rl"
	"osap/internal/stats"
)

// SyntheticArtifacts builds a full artifact set with freshly
// initialized (untrained) networks and an OC-SVM fitted on a synthetic
// in-distribution throughput series. Inference cost is identical to
// trained artifacts — the weights just encode no policy — so this is
// the cheap substrate for serve tests and load benchmarks where
// decision quality is irrelevant. ensemble ≥ 2 enables all three
// schemes. Nothing was calibrated: the record is AssumedRecord's.
//
//osap:ignore deadcode the untrained substrate of the serve, registry and cmd/osap-serve tests
func SyntheticArtifacts(dataset string, ensemble int, seed uint64) (*experiments.Artifacts, error) {
	if ensemble < 2 {
		return nil, fmt.Errorf("serve: synthetic artifacts need ensemble ≥ 2, got %d", ensemble)
	}
	cfg := rl.DefaultNetConfig()
	agents := make([]*rl.ActorCritic, ensemble)
	for i := range agents {
		ac, err := rl.NewActorCritic(cfg, seed+uint64(i)*0x9E37)
		if err != nil {
			return nil, err
		}
		agents[i] = ac
	}

	// The value ensemble reuses the agents' critics: same architecture
	// and cost as trained value nets.
	valueNets := make([]*nn.Network, ensemble)
	for i, a := range agents {
		valueNets[i] = a.Critic
	}

	// Fit the OC-SVM on a mildly noisy stationary series so U_S has a
	// well-defined in-distribution region.
	rng := stats.NewRNG(seed ^ 0x0C5)
	sigCfg := core.DefaultStateSignalConfig()
	series := make([]float64, 400)
	for i := range series {
		series[i] = 3 + 0.5*rng.NormFloat64()
	}
	feats := core.BuildStateFeatures(series, sigCfg)
	model, err := ocsvm.Train(feats, ocsvm.DefaultConfig())
	if err != nil {
		return nil, err
	}

	a := &experiments.Artifacts{
		Agents:      agents,
		ValueNets:   valueNets,
		Calibration: experiments.Calibration{Dataset: dataset, OCSVM: model, AlphaPi: 0.05, AlphaV: 0.05},
	}
	a.Record = experiments.AssumedRecord(a)
	return a, nil
}
