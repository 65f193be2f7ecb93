// Package rl implements the deep reinforcement-learning substrate for
// the Pensieve case study: a Pensieve-style actor-critic network pair, a
// synchronous advantage actor-critic (A2C) trainer with parallel rollout
// workers, externally-trained value functions (for the U_V signal when an
// agent does not expose its critic), and ensemble training (the paper's
// U_π and U_V signals use ensembles of 5 members differing only in
// network initialization, §2.4).
//
// Training and evaluation here are deterministic functions of their
// seeds; cmd/osap-vet's nondeterminism analyzer enforces that.
//
//osap:deterministic
package rl

import (
	"fmt"

	"osap/internal/mdp"
	"osap/internal/nn"
	"osap/internal/stats"
)

// NetConfig describes the actor/critic architecture: a 1-D convolution
// over the observation's feature rows (as in Pensieve), followed by a
// fully connected trunk.
type NetConfig struct {
	// ObsChannels and HistoryLen describe the observation matrix
	// (Pensieve: 6×8).
	ObsChannels int
	HistoryLen  int
	// ConvFilters and ConvKernel shape the feature extractor.
	ConvFilters int
	ConvKernel  int
	// Hidden is the width of the fully connected layer.
	Hidden int
	// Actions is the policy output dimension.
	Actions int
}

// DefaultNetConfig returns the architecture used in the experiments: a
// scaled-down Pensieve (16 conv filters, 64 hidden units) over the 6×8
// observation with 6 actions.
func DefaultNetConfig() NetConfig {
	return NetConfig{
		ObsChannels: 6,
		HistoryLen:  8,
		ConvFilters: 16,
		ConvKernel:  4,
		Hidden:      64,
		Actions:     6,
	}
}

// Validate checks the configuration.
func (c NetConfig) Validate() error {
	if c.ObsChannels <= 0 || c.HistoryLen <= 0 || c.ConvFilters <= 0 ||
		c.ConvKernel <= 0 || c.Hidden <= 0 || c.Actions <= 0 {
		return fmt.Errorf("rl: non-positive NetConfig field: %+v", c)
	}
	if c.ConvKernel > c.HistoryLen {
		return fmt.Errorf("rl: conv kernel %d exceeds history %d", c.ConvKernel, c.HistoryLen)
	}
	return nil
}

// ObsDim returns the flattened observation length.
func (c NetConfig) ObsDim() int { return c.ObsChannels * c.HistoryLen }

// convOut returns the flattened conv output length.
func (c NetConfig) convOut() int { return c.ConvFilters * (c.HistoryLen - c.ConvKernel + 1) }

// BuildActor constructs and initializes a policy network
// (obs → softmax over actions).
func BuildActor(cfg NetConfig, rng *stats.RNG) *nn.Network {
	net := nn.NewNetwork(
		nn.Conv1D(cfg.ObsChannels, cfg.HistoryLen, cfg.ConvFilters, cfg.ConvKernel),
		nn.ReLU(cfg.convOut()),
		nn.Dense(cfg.convOut(), cfg.Hidden),
		nn.ReLU(cfg.Hidden),
		nn.Dense(cfg.Hidden, cfg.Actions),
		nn.Softmax(cfg.Actions),
	)
	nn.HeInit(net, rng)
	return net
}

// BuildCritic constructs and initializes a value network (obs → scalar).
func BuildCritic(cfg NetConfig, rng *stats.RNG) *nn.Network {
	net := nn.NewNetwork(
		nn.Conv1D(cfg.ObsChannels, cfg.HistoryLen, cfg.ConvFilters, cfg.ConvKernel),
		nn.ReLU(cfg.convOut()),
		nn.Dense(cfg.convOut(), cfg.Hidden),
		nn.ReLU(cfg.Hidden),
		nn.Dense(cfg.Hidden, 1),
	)
	nn.HeInit(net, rng)
	return net
}

// ActorCritic pairs a trained policy network with its critic. It
// implements both mdp.Policy and mdp.ValueFn and is safe for concurrent
// inference once training has finished.
type ActorCritic struct {
	Cfg    NetConfig
	Actor  *nn.Network
	Critic *nn.Network
}

// NewActorCritic builds a freshly initialized agent. Ensemble members
// are created by calling this with different seeds — per the paper, the
// only difference between members is network initialization.
func NewActorCritic(cfg NetConfig, seed uint64) (*ActorCritic, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	rng := stats.NewRNG(seed)
	return &ActorCritic{
		Cfg:    cfg,
		Actor:  BuildActor(cfg, rng),
		Critic: BuildCritic(cfg, rng),
	}, nil
}

// Probs implements mdp.Policy.
func (ac *ActorCritic) Probs(obs []float64) []float64 { return ac.Actor.Forward(obs) }

// Value implements mdp.ValueFn.
func (ac *ActorCritic) Value(obs []float64) float64 { return ac.Critic.Forward(obs)[0] }

// AgentJSON is the serialized form of an agent (architecture +
// weights), a plain value that encodes and decodes in one pass.
type AgentJSON struct {
	Cfg    NetConfig      `json:"cfg"`
	Actor  nn.NetworkJSON `json:"actor"`
	Critic nn.NetworkJSON `json:"critic"`
}

// JSON returns the agent's serialized form; its weights alias the
// agent's.
func (ac *ActorCritic) JSON() (AgentJSON, error) {
	actor, err := ac.Actor.JSON()
	if err != nil {
		return AgentJSON{}, err
	}
	critic, err := ac.Critic.JSON()
	if err != nil {
		return AgentJSON{}, err
	}
	return AgentJSON{Cfg: ac.Cfg, Actor: actor, Critic: critic}, nil
}

// Agent builds the agent aj describes, checking every layer's shape
// first (nn.NetworkJSON.Network).
func (aj AgentJSON) Agent() (*ActorCritic, error) {
	actor, err := aj.Actor.Network()
	if err != nil {
		return nil, fmt.Errorf("rl: decode actor: %w", err)
	}
	critic, err := aj.Critic.Network()
	if err != nil {
		return nil, fmt.Errorf("rl: decode critic: %w", err)
	}
	return &ActorCritic{Cfg: aj.Cfg, Actor: actor, Critic: critic}, nil
}

// GreedyPolicy wraps a policy so rollouts take its argmax action while
// still exposing the full distribution (used at evaluation/deployment
// time, where Pensieve streams with its most probable bitrate).
type GreedyPolicy struct{ P mdp.Policy }

// Probs implements mdp.Policy: a one-hot on the wrapped policy's argmax.
func (g GreedyPolicy) Probs(obs []float64) []float64 {
	probs := g.P.Probs(obs)
	return mdp.OneHot(len(probs), mdp.ArgmaxAction(probs))
}
