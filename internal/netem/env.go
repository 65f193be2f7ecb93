package netem

import (
	"fmt"
	"math"

	"osap/internal/abr"
	"osap/internal/stats"
	"osap/internal/trace"
)

// EnvConfig parameterizes the packet-level streaming environment. It
// mirrors abr.EnvConfig but replaces the analytic download model with
// the discrete-event emulator.
type EnvConfig struct {
	Video        *abr.Video
	Traces       []*trace.Trace
	QoE          abr.QoEConfig
	Link         LinkConfig // Link.Trace is overridden per episode
	BufferCapSec float64
	RandomStart  bool
}

// DefaultEnvConfig returns the paper's parameters over the emulated
// path.
func DefaultEnvConfig(video *abr.Video, traces []*trace.Trace) EnvConfig {
	return EnvConfig{
		Video:        video,
		Traces:       traces,
		QoE:          abr.DefaultQoE(),
		Link:         DefaultLinkConfig(nil),
		BufferCapSec: 60,
		RandomStart:  true,
	}
}

// Env is the packet-level ABR environment: identical episode semantics
// and observation encoding to abr.Env, with chunk downloads simulated at
// MTU granularity through the emulator. It implements mdp.Env.
type Env struct {
	cfg EnvConfig

	em        *Emulator
	bufferSec float64
	chunk     int
	lastLevel int
	thrHist   []float64
	dlHist    []float64
	last      abr.ChunkResult
}

// NewEnv validates the configuration.
func NewEnv(cfg EnvConfig) (*Env, error) {
	if cfg.Video == nil {
		return nil, fmt.Errorf("netem: EnvConfig.Video is required")
	}
	if err := cfg.Video.Validate(); err != nil {
		return nil, err
	}
	if len(cfg.Traces) == 0 {
		return nil, fmt.Errorf("netem: EnvConfig.Traces is empty")
	}
	if cfg.QoE == (abr.QoEConfig{}) {
		cfg.QoE = abr.DefaultQoE()
	}
	if cfg.BufferCapSec <= 0 {
		return nil, fmt.Errorf("netem: BufferCapSec %v must be positive", cfg.BufferCapSec)
	}
	// Validate each trace by trial-constructing an emulator.
	for _, tr := range cfg.Traces {
		lc := cfg.Link
		lc.Trace = tr
		if _, err := NewEmulator(lc, 0); err != nil {
			return nil, err
		}
	}
	return &Env{cfg: cfg}, nil
}

// NumActions implements mdp.Env.
func (e *Env) NumActions() int { return e.cfg.Video.NumLevels() }

// ObsDim implements mdp.Env.
func (e *Env) ObsDim() int { return abr.ObsDim }

// Reset implements mdp.Env.
func (e *Env) Reset(rng *stats.RNG) []float64 {
	tr := e.cfg.Traces[rng.Intn(len(e.cfg.Traces))]
	start := 0.0
	if e.cfg.RandomStart {
		start = rng.Float64() * tr.Duration()
	}
	lc := e.cfg.Link
	lc.Trace = tr
	em, err := NewEmulator(lc, start)
	if err != nil {
		// Traces were validated in NewEnv; reaching here is a bug.
		panic(err)
	}
	e.em = em
	e.bufferSec = 0
	e.chunk = 0
	e.lastLevel = -1
	e.thrHist = e.thrHist[:0]
	e.dlHist = e.dlHist[:0]
	e.last = abr.ChunkResult{}
	return e.observation()
}

// Step implements mdp.Env.
func (e *Env) Step(action int) ([]float64, float64, bool) {
	v := e.cfg.Video
	if action < 0 || action >= v.NumLevels() {
		panic(fmt.Sprintf("netem: action %d out of range [0,%d)", action, v.NumLevels()))
	}
	if e.em == nil {
		panic("netem: Step before Reset")
	}
	if e.chunk >= v.NumChunks() {
		panic("netem: Step after episode end")
	}

	size := v.SizesBytes[e.chunk][action]
	dl := e.em.FetchBytes(size)

	rebuf := math.Max(0, dl-e.bufferSec)
	e.bufferSec = math.Max(e.bufferSec-dl, 0) + v.ChunkSec
	if e.bufferSec > e.cfg.BufferCapSec {
		idle := e.bufferSec - e.cfg.BufferCapSec
		e.em.AdvanceBy(idle)
		e.bufferSec = e.cfg.BufferCapSec
	}

	thr := size * 8 / 1e6 / dl
	e.thrHist = append(e.thrHist, thr)
	e.dlHist = append(e.dlHist, dl)

	prevMbps := -1.0
	if e.lastLevel >= 0 {
		prevMbps = v.BitrateMbps(e.lastLevel)
	}
	qoe := e.cfg.QoE.ChunkQoE(v.BitrateMbps(action), prevMbps, rebuf)

	e.last = abr.ChunkResult{
		ChunkIndex:     e.chunk,
		Level:          action,
		BitrateMbps:    v.BitrateMbps(action),
		SizeBytes:      size,
		DownloadSec:    dl,
		ThroughputMbps: thr,
		RebufferSec:    rebuf,
		BufferSec:      e.bufferSec,
		QoE:            qoe,
	}
	e.lastLevel = action
	e.chunk++
	done := e.chunk >= v.NumChunks()
	return e.observation(), qoe, done
}

// LastChunk returns details of the most recent chunk download.
func (e *Env) LastChunk() abr.ChunkResult { return e.last }

func (e *Env) observation() []float64 {
	return abr.BuildObservation(e.cfg.Video, e.lastLevel, e.bufferSec, e.chunk, e.thrHist, e.dlHist)
}
