package rl

import (
	"fmt"
	"runtime"
	"sync"

	"osap/internal/mdp"
	"osap/internal/nn"
)

// TrainEnsemble trains n agents in the same training environment where
// "the only difference in the training process is the initialization of
// the neural network variables" (§2.4). Member i uses seed
// cfg.Seed + i·memberSeedStride for initialization AND rollout
// randomness; the environment distribution is identical.
//
// Members train concurrently (each is an independent A2C run). The
// returned slice is ordered by member index; by convention member 0 is
// the deployed agent.
func TrainEnsemble(factory EnvFactory, cfg TrainConfig, n int) ([]*ActorCritic, error) {
	if n <= 0 {
		return nil, fmt.Errorf("rl: ensemble size %d", n)
	}
	agents := make([]*ActorCritic, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			mcfg := cfg
			mcfg.Seed = memberSeed(cfg.Seed, i)
			// Each member's A2C run already parallelizes rollouts;
			// split the machine evenly across the n concurrent members
			// so small and large hosts are both fully used without
			// oversubscription.
			if mcfg.Workers == 0 {
				mcfg.Workers = innerWorkers(n)
			}
			agents[i], _, errs[i] = Train(factory, mcfg)
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return agents, nil
}

// innerWorkers divides GOMAXPROCS across n concurrent ensemble members
// (at least 1 each), the per-member rollout-parallelism bound.
func innerWorkers(n int) int {
	w := runtime.GOMAXPROCS(0) / n
	if w < 1 {
		w = 1
	}
	return w
}

// memberSeedStride spaces member seeds far apart.
const memberSeedStride = 0x9e3779b9

func memberSeed(base uint64, i int) uint64 { return base + uint64(i)*memberSeedStride }

// TrainValueEnsemble trains n value functions for the given frozen
// policy. Per §2.4, all members regress on the same agent-environment
// interaction data; they differ only in network initialization.
func TrainValueEnsemble(factory EnvFactory, policy mdp.Policy, cfg ValueTrainConfig, n int) ([]*nn.Network, error) {
	if n <= 0 {
		return nil, fmt.Errorf("rl: value ensemble size %d", n)
	}
	ds, err := CollectValueDataset(factory, policy, cfg)
	if err != nil {
		return nil, err
	}
	nets := make([]*nn.Network, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			mcfg := cfg
			mcfg.InitSeed = memberSeed(cfg.InitSeed, i)
			nets[i], errs[i] = TrainValueOnDataset(ds, mcfg)
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return nets, nil
}
