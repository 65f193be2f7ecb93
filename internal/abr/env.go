package abr

import (
	"fmt"
	"math"

	"osap/internal/stats"
	"osap/internal/trace"
)

// EnvConfig parameterizes the streaming environment.
type EnvConfig struct {
	// Video is the content being streamed (required).
	Video *Video
	// Traces is the pool of network traces; Reset picks one uniformly
	// (required, non-empty).
	Traces []*trace.Trace
	// QoE is the reward metric; zero value is replaced by DefaultQoE.
	QoE QoEConfig
	// RTTSec is the per-chunk request round-trip latency. The paper
	// emulates an 80 ms RTT between client and server.
	RTTSec float64
	// BufferCapSec caps the playback buffer; when full, the client
	// idles instead of prefetching (Pensieve uses 60 s).
	BufferCapSec float64
	// PayloadEfficiency discounts raw link capacity for protocol
	// overhead (Pensieve uses 0.95).
	PayloadEfficiency float64
	// RandomStart begins each episode at a random offset into the
	// chosen trace (as Pensieve's simulator does). When false episodes
	// start at t=0 — useful for reproducible single-trace tests.
	RandomStart bool
}

// DefaultEnvConfig returns the paper's environment parameters for the
// given content and trace pool.
func DefaultEnvConfig(video *Video, traces []*trace.Trace) EnvConfig {
	return EnvConfig{
		Video:             video,
		Traces:            traces,
		QoE:               DefaultQoE(),
		RTTSec:            0.08,
		BufferCapSec:      60,
		PayloadEfficiency: 0.95,
		RandomStart:       true,
	}
}

// minSimMbps floors the instantaneous capacity during download
// integration so that zero-capacity outage slots advance time instead of
// dividing by zero. 5 kbps is far below the lowest ladder rung, so it
// only bounds worst-case stalls.
const minSimMbps = 0.005

// ChunkResult records the outcome of one chunk download, for logging and
// the example applications.
type ChunkResult struct {
	ChunkIndex     int
	Level          int
	BitrateMbps    float64
	SizeBytes      float64
	DownloadSec    float64
	ThroughputMbps float64
	RebufferSec    float64
	BufferSec      float64 // buffer after the chunk is appended
	QoE            float64
}

// Env is the chunk-level ABR streaming environment: the Go equivalent of
// Pensieve's trace-driven simulator. Observations use Pensieve's 6×8
// encoding; actions select the next chunk's ladder level; rewards are
// per-chunk QoE. It implements mdp.Env.
type Env struct {
	cfg EnvConfig

	// Per-episode state.
	rng        *stats.RNG
	trace      *trace.Trace
	traceTime  float64 // seconds into the (wrapping) trace
	bufferSec  float64
	chunk      int
	lastLevel  int // -1 before the first chunk
	thrHist    []float64
	dlHist     []float64
	lastResult ChunkResult
}

// NewEnv validates cfg and returns a fresh environment.
func NewEnv(cfg EnvConfig) (*Env, error) {
	if cfg.Video == nil {
		return nil, fmt.Errorf("abr: EnvConfig.Video is required")
	}
	if err := cfg.Video.Validate(); err != nil {
		return nil, err
	}
	if len(cfg.Traces) == 0 {
		return nil, fmt.Errorf("abr: EnvConfig.Traces is empty")
	}
	for _, tr := range cfg.Traces {
		if len(tr.Mbps) == 0 {
			return nil, fmt.Errorf("abr: trace %q is empty", tr.Name)
		}
	}
	if cfg.QoE == (QoEConfig{}) {
		cfg.QoE = DefaultQoE()
	}
	if cfg.PayloadEfficiency <= 0 || cfg.PayloadEfficiency > 1 {
		return nil, fmt.Errorf("abr: PayloadEfficiency %v outside (0,1]", cfg.PayloadEfficiency)
	}
	if cfg.RTTSec < 0 || cfg.BufferCapSec <= 0 {
		return nil, fmt.Errorf("abr: invalid RTT %v or buffer cap %v", cfg.RTTSec, cfg.BufferCapSec)
	}
	return &Env{cfg: cfg}, nil
}

// NumActions implements mdp.Env.
func (e *Env) NumActions() int { return e.cfg.Video.NumLevels() }

// ObsDim implements mdp.Env.
func (e *Env) ObsDim() int { return ObsDim }

// Reset implements mdp.Env.
func (e *Env) Reset(rng *stats.RNG) []float64 {
	e.rng = rng
	e.trace = e.cfg.Traces[rng.Intn(len(e.cfg.Traces))]
	if e.cfg.RandomStart {
		e.traceTime = rng.Float64() * e.trace.Duration()
	} else {
		e.traceTime = 0
	}
	e.bufferSec = 0
	e.chunk = 0
	e.lastLevel = -1
	e.thrHist = e.thrHist[:0]
	e.dlHist = e.dlHist[:0]
	e.lastResult = ChunkResult{}
	return e.observation()
}

// Step implements mdp.Env: downloads the next chunk at the chosen ladder
// level and returns the new observation, the chunk's QoE as reward, and
// whether the video finished.
func (e *Env) Step(action int) ([]float64, float64, bool) {
	v := e.cfg.Video
	if action < 0 || action >= v.NumLevels() {
		panic(fmt.Sprintf("abr: action %d out of range [0,%d)", action, v.NumLevels()))
	}
	if e.trace == nil {
		panic("abr: Step before Reset")
	}
	if e.chunk >= v.NumChunks() {
		panic("abr: Step after episode end")
	}

	size := v.SizesBytes[e.chunk][action]
	dl := e.downloadSeconds(size) + e.cfg.RTTSec
	e.traceTime += e.cfg.RTTSec

	rebuf := math.Max(0, dl-e.bufferSec)
	e.bufferSec = math.Max(e.bufferSec-dl, 0) + v.ChunkSec

	// If the buffer exceeds its cap, the client idles (no download in
	// flight) while playback drains it back to the cap.
	if e.bufferSec > e.cfg.BufferCapSec {
		idle := e.bufferSec - e.cfg.BufferCapSec
		e.traceTime += idle
		e.bufferSec = e.cfg.BufferCapSec
	}

	thr := size * 8 / 1e6 / dl // Mbps, as the client would measure it
	e.thrHist = append(e.thrHist, thr)
	e.dlHist = append(e.dlHist, dl)

	prevMbps := -1.0
	if e.lastLevel >= 0 {
		prevMbps = v.BitrateMbps(e.lastLevel)
	}
	qoe := e.cfg.QoE.ChunkQoE(v.BitrateMbps(action), prevMbps, rebuf)

	e.lastResult = ChunkResult{
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

// downloadSeconds integrates the (piecewise-constant) trace capacity from
// the current trace time until size bytes have been transferred,
// advancing the trace clock.
func (e *Env) downloadSeconds(size float64) float64 {
	dl, t := DownloadTime(e.trace, e.traceTime, size, e.cfg.PayloadEfficiency)
	e.traceTime = t
	return dl
}

// DownloadTime integrates the trace capacity starting at trace time
// start until size bytes are transferred, returning the transfer
// duration and the new trace time. It is shared by the environment and
// the offline oracle planner.
func DownloadTime(tr *trace.Trace, start, size, payloadEff float64) (dl, end float64) {
	remaining := size
	t := start
	for remaining > 0 {
		mbps := math.Max(tr.BandwidthAt(t), minSimMbps)
		bytesPerSec := mbps * 1e6 / 8 * payloadEff
		slotEnd := math.Floor(t) + 1
		dt := slotEnd - t
		capBytes := bytesPerSec * dt
		if capBytes >= remaining {
			t += remaining / bytesPerSec
			remaining = 0
		} else {
			remaining -= capBytes
			t = slotEnd
		}
	}
	return t - start, t
}

// LastChunk returns details of the most recent chunk download.
func (e *Env) LastChunk() ChunkResult { return e.lastResult }

// observation builds the Pensieve 6×8 state matrix.
func (e *Env) observation() []float64 {
	return BuildObservation(e.cfg.Video, e.lastLevel, e.bufferSec, e.chunk, e.thrHist, e.dlHist)
}
