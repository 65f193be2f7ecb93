// Package cc is a second OSAP case study in the spirit of the paper's
// conclusion ("the exploration of online safety assurance in other
// application domains"): rate-based congestion control à la Aurora (Jay
// et al., ICML '19 — cited as [20] in the paper), the deep-RL congestion
// controller by the same research group.
//
// A sender picks a sending rate once per monitor interval (MI); a fluid
// bottleneck model with a drop-tail queue produces the resulting
// throughput, latency and loss; the observation is a history of
// dimensionless congestion statistics (latency ratio, loss rate, send
// ratio, normalized rate); the reward is Aurora's linear combination of
// throughput, latency and loss. The environment implements mdp.Env, so
// the A2C/PPO trainers, ensembles and every OSAP uncertainty signal
// apply unchanged.
package cc

import (
	"fmt"
	"math"

	"osap/internal/stats"
	"osap/internal/trace"
)

// RateFactors is the discrete action set: multiplicative sending-rate
// adjustments per monitor interval.
var RateFactors = []float64{0.5, 0.8, 1.0, 1.25, 2.0}

// Config parameterizes the congestion-control environment.
type Config struct {
	// Traces supplies bottleneck capacity (Mbps per second); one trace
	// is drawn per episode.
	Traces []*trace.Trace
	// BaseRTTSec is the propagation round-trip time.
	BaseRTTSec float64
	// MISec is the monitor-interval duration.
	MISec float64
	// QueueBDP sizes the bottleneck queue in bandwidth-delay products
	// (computed against the trace mean).
	QueueBDP float64
	// Steps is the episode length in monitor intervals.
	Steps int
	// HistoryLen is the number of past MIs in the observation.
	HistoryLen int
	// MinRateMbps / MaxRateMbps clamp the sending rate.
	MinRateMbps float64
	MaxRateMbps float64
	// RandomStart begins episodes at a random trace offset.
	RandomStart bool
}

// DefaultConfig returns an Aurora-like setup over the given traces.
func DefaultConfig(traces []*trace.Trace) Config {
	return Config{
		Traces:      traces,
		BaseRTTSec:  0.05,
		MISec:       0.5,
		QueueBDP:    2,
		Steps:       100,
		HistoryLen:  10,
		MinRateMbps: 0.1,
		MaxRateMbps: 48,
		RandomStart: true,
	}
}

// Observation layout: HistoryLen entries per channel, channel-major,
// matching nn.Conv1D(channels=4, length=HistoryLen).
const (
	rowLatencyRatio = 0 // observed RTT / base RTT, /4 normalization
	rowLossRate     = 1 // fraction of packets lost in the MI
	rowSendRatio    = 2 // sent / delivered, /4 normalization
	rowRate         = 3 // sending rate / MaxRateMbps
	numRows         = 4
)

// MIResult records one monitor interval, for logging and signals.
type MIResult struct {
	Step           int
	RateMbps       float64
	ThroughputMbps float64
	RTTSec         float64
	LossRate       float64
	QueueSec       float64 // queueing delay contribution
	Reward         float64
}

// Env is the congestion-control environment. It implements mdp.Env.
type Env struct {
	cfg Config

	tr        *trace.Trace
	traceTime float64
	rate      float64 // sending rate, Mbps
	queueBits float64 // bottleneck queue backlog, Mbits
	queueCap  float64 // queue capacity, Mbits
	step      int

	latHist  []float64
	lossHist []float64
	sendHist []float64
	rateHist []float64
	last     MIResult
}

// NewEnv validates cfg.
func NewEnv(cfg Config) (*Env, error) {
	if len(cfg.Traces) == 0 {
		return nil, fmt.Errorf("cc: Config.Traces is empty")
	}
	for _, tr := range cfg.Traces {
		if len(tr.Mbps) == 0 || tr.Mean() <= 0 {
			return nil, fmt.Errorf("cc: trace %q empty or zero-capacity", tr.Name)
		}
	}
	if cfg.BaseRTTSec <= 0 || cfg.MISec <= 0 {
		return nil, fmt.Errorf("cc: RTT %v / MI %v must be positive", cfg.BaseRTTSec, cfg.MISec)
	}
	if cfg.Steps <= 0 || cfg.HistoryLen <= 0 {
		return nil, fmt.Errorf("cc: Steps %d / HistoryLen %d must be positive", cfg.Steps, cfg.HistoryLen)
	}
	if cfg.MinRateMbps <= 0 || cfg.MaxRateMbps <= cfg.MinRateMbps {
		return nil, fmt.Errorf("cc: rate bounds [%v, %v] invalid", cfg.MinRateMbps, cfg.MaxRateMbps)
	}
	if cfg.QueueBDP <= 0 {
		return nil, fmt.Errorf("cc: QueueBDP %v must be positive", cfg.QueueBDP)
	}
	return &Env{cfg: cfg}, nil
}

// NumActions implements mdp.Env.
func (e *Env) NumActions() int { return len(RateFactors) }

// ObsDim implements mdp.Env.
func (e *Env) ObsDim() int { return numRows * e.cfg.HistoryLen }

// Reset implements mdp.Env.
func (e *Env) Reset(rng *stats.RNG) []float64 {
	e.tr = e.cfg.Traces[rng.Intn(len(e.cfg.Traces))]
	if e.cfg.RandomStart {
		e.traceTime = rng.Float64() * e.tr.Duration()
	} else {
		e.traceTime = 0
	}
	// Start at a moderate rate near half the trace mean.
	e.rate = math.Max(e.cfg.MinRateMbps, e.tr.Mean()/2)
	e.queueBits = 0
	e.queueCap = e.cfg.QueueBDP * e.tr.Mean() * e.cfg.BaseRTTSec
	e.step = 0
	e.latHist = e.latHist[:0]
	e.lossHist = e.lossHist[:0]
	e.sendHist = e.sendHist[:0]
	e.rateHist = e.rateHist[:0]
	e.last = MIResult{}
	return e.observation()
}

// Step implements mdp.Env: applies the rate factor and simulates one
// monitor interval of fluid traffic through the bottleneck.
func (e *Env) Step(action int) ([]float64, float64, bool) {
	if action < 0 || action >= len(RateFactors) {
		panic(fmt.Sprintf("cc: action %d out of range", action))
	}
	if e.tr == nil {
		panic("cc: Step before Reset")
	}
	if e.step >= e.cfg.Steps {
		panic("cc: Step after episode end")
	}

	e.rate = clamp(e.rate*RateFactors[action], e.cfg.MinRateMbps, e.cfg.MaxRateMbps)

	// Integrate the fluid model across the MI in per-second trace
	// slots.
	mi := e.cfg.MISec
	sentBits := e.rate * mi
	var deliveredBits, lostBits float64
	remaining := mi
	t := e.traceTime
	for remaining > 1e-12 {
		slotEnd := math.Floor(t) + 1
		dt := math.Min(remaining, slotEnd-t)
		capacity := math.Max(e.tr.BandwidthAt(t), 0.01) // Mbps

		inflow := e.rate * dt
		drained := capacity * dt
		// Queue absorbs the inflow; the link drains queue+inflow at
		// capacity.
		total := e.queueBits + inflow
		out := math.Min(total, drained)
		deliveredBits += out
		e.queueBits = total - out
		if e.queueBits > e.queueCap {
			lostBits += e.queueBits - e.queueCap
			e.queueBits = e.queueCap
		}
		t += dt
		remaining -= dt
	}
	e.traceTime = t

	capacityNow := math.Max(e.tr.BandwidthAt(e.traceTime), 0.01)
	queueDelay := e.queueBits / capacityNow
	rtt := e.cfg.BaseRTTSec + queueDelay
	throughput := deliveredBits / mi
	lossRate := 0.0
	if sentBits > 0 {
		lossRate = lostBits / sentBits
	}

	// Aurora's linear reward: throughput rewarded, latency and loss
	// penalized (coefficients scaled to Mbps/seconds).
	reward := 10*throughput - 20*rtt*throughput - 30*lossRate*e.rate

	e.latHist = append(e.latHist, rtt/e.cfg.BaseRTTSec)
	e.lossHist = append(e.lossHist, lossRate)
	sendRatio := 1.0
	if throughput > 0 {
		sendRatio = e.rate / throughput
	}
	e.sendHist = append(e.sendHist, sendRatio)
	e.rateHist = append(e.rateHist, e.rate)

	e.last = MIResult{
		Step:           e.step,
		RateMbps:       e.rate,
		ThroughputMbps: throughput,
		RTTSec:         rtt,
		LossRate:       lossRate,
		QueueSec:       queueDelay,
		Reward:         reward,
	}
	e.step++
	return e.observation(), reward, e.step >= e.cfg.Steps
}

func clamp(x, lo, hi float64) float64 { return math.Min(math.Max(x, lo), hi) }

// observation builds the 4×HistoryLen congestion-statistics matrix,
// right-aligned and zero-padded at episode start.
func (e *Env) observation() []float64 {
	h := e.cfg.HistoryLen
	obs := make([]float64, numRows*h)
	fill := func(row int, hist []float64, norm float64) {
		for i := 0; i < h; i++ {
			hi := len(hist) - h + i
			if hi < 0 {
				continue
			}
			obs[row*h+i] = hist[hi] / norm
		}
	}
	fill(rowLatencyRatio, e.latHist, 4)
	fill(rowLossRate, e.lossHist, 1)
	fill(rowSendRatio, e.sendHist, 4)
	fill(rowRate, e.rateHist, e.cfg.MaxRateMbps)
	return obs
}

// LatencyRatioFromObs decodes the most recent latency ratio (RTT over
// base RTT) — the natural U_S monitoring signal for congestion control.
func LatencyRatioFromObs(obs []float64, historyLen int) float64 {
	return obs[rowLatencyRatio*historyLen+historyLen-1] * 4
}

// LossRateFromObs decodes the most recent loss rate.
func LossRateFromObs(obs []float64, historyLen int) float64 {
	return obs[rowLossRate*historyLen+historyLen-1]
}
