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
	// RTTSec is the per-chunk request round-trip latency of the
	// analytic link. The paper emulates an 80 ms RTT between client and
	// server.
	RTTSec float64
	// BufferCapSec caps the playback buffer; when full, the client
	// idles instead of prefetching (Pensieve uses 60 s).
	BufferCapSec float64
	// PayloadEfficiency discounts the analytic link's raw capacity for
	// protocol overhead (Pensieve uses 0.95).
	PayloadEfficiency float64
	// RandomStart begins each episode at a random offset into the
	// chosen trace (as Pensieve's simulator does). When false episodes
	// start at t=0 — useful for reproducible single-trace tests.
	RandomStart bool
	// Link builds the download model for one episode over tr, starting
	// startSec into it. Nil is Pensieve's analytic model: the trace
	// capacity integrated at PayloadEfficiency plus RTTSec per chunk.
	// netem.PacketLink is the MahiMahi-style packet emulator.
	Link func(tr *trace.Trace, startSec float64) (Link, error)
}

// Link is a download model with a clock: FetchBytes transfers size
// bytes and returns how long that took, AdvanceBy lets dt seconds pass
// with nothing in flight.
type Link interface {
	FetchBytes(size float64) float64
	AdvanceBy(dt float64)
}

// DefaultEnvConfig returns the paper's environment parameters for the
// given content and trace pool.
func DefaultEnvConfig(video *Video, traces []*trace.Trace) EnvConfig {
	return EnvConfig{
		Video:             video,
		Traces:            traces,
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
// Pensieve's trace-driven simulator, or, with a packet Link, of its
// MahiMahi emulation. Observations use Pensieve's 6×8 encoding; actions
// select the next chunk's ladder level; rewards are per-chunk QoE. It
// implements mdp.Env.
type Env struct {
	cfg EnvConfig

	// Per-episode state.
	trace      *trace.Trace // drawn by Reset
	start      float64      // offset into trace, drawn by Reset
	analytic   analyticLink // the link when cfg.Link is nil
	link       Link         // nil before the first Reset
	bufferSec  float64
	chunk      int
	lastLevel  int // -1 before the first chunk
	thrHist    []float64
	dlHist     []float64
	lastResult ChunkResult
}

// NewEnv validates cfg and returns a fresh environment. With a Link it
// builds one link per trace, so a trace the link cannot deliver fails
// here rather than at Reset.
func NewEnv(cfg EnvConfig) (*Env, error) {
	if err := cfg.check(); err != nil {
		return nil, err
	}
	if len(cfg.Traces) == 0 {
		return nil, fmt.Errorf("abr: EnvConfig.Traces is empty")
	}
	for _, tr := range cfg.Traces {
		if len(tr.Mbps) == 0 {
			return nil, fmt.Errorf("abr: trace %q is empty", tr.Name)
		}
		if cfg.Link != nil {
			if _, err := cfg.Link(tr, 0); err != nil {
				return nil, err
			}
		}
	}
	return &Env{cfg: cfg}, nil
}

// check validates everything but the trace pool. NaN fails every
// comparison, so each bound is written to refuse it.
func (cfg *EnvConfig) check() error {
	if cfg.Video == nil {
		return fmt.Errorf("abr: EnvConfig.Video is required")
	}
	if err := cfg.Video.Validate(); err != nil {
		return err
	}
	if !(cfg.PayloadEfficiency > 0 && cfg.PayloadEfficiency <= 1) {
		return fmt.Errorf("abr: PayloadEfficiency %v outside (0,1]", cfg.PayloadEfficiency)
	}
	if !(cfg.RTTSec >= 0) || math.IsInf(cfg.RTTSec, 1) || !(cfg.BufferCapSec > 0) || math.IsInf(cfg.BufferCapSec, 1) {
		return fmt.Errorf("abr: invalid RTT %v or buffer cap %v", cfg.RTTSec, cfg.BufferCapSec)
	}
	return nil
}

// NumActions implements mdp.Env.
func (e *Env) NumActions() int { return e.cfg.Video.NumLevels() }

// ObsDim implements mdp.Env.
func (e *Env) ObsDim() int { return ObsDim }

// Reset implements mdp.Env: it draws the trace, then the start offset.
func (e *Env) Reset(rng *stats.RNG) []float64 {
	tr := e.cfg.Traces[rng.Intn(len(e.cfg.Traces))]
	start := 0.0
	if e.cfg.RandomStart {
		start = rng.Float64() * tr.Duration()
	}
	e.trace, e.start = tr, start
	if e.cfg.Link == nil {
		e.analytic = analyticLink{tr: tr, t: start, rtt: e.cfg.RTTSec, eff: e.cfg.PayloadEfficiency}
		e.link = &e.analytic
	} else {
		l, err := e.cfg.Link(tr, start)
		if err != nil {
			// NewEnv built a link over every trace; reaching here is a bug.
			panic(err)
		}
		e.link = l
	}
	e.bufferSec = 0
	e.chunk = 0
	e.lastLevel = -1
	e.thrHist = e.thrHist[:0]
	e.dlHist = e.dlHist[:0]
	e.lastResult = ChunkResult{}
	return e.observation()
}

// Episode reports the trace and start offset (seconds) the last Reset
// drew; the trace is nil before the first Reset.
func (e *Env) Episode() (*trace.Trace, float64) { return e.trace, e.start }

// Step implements mdp.Env: downloads the next chunk at the chosen ladder
// level and returns the new observation, the chunk's QoE as reward, and
// whether the video finished.
func (e *Env) Step(action int) ([]float64, float64, bool) {
	v := e.cfg.Video
	if action < 0 || action >= v.NumLevels() {
		panic(fmt.Sprintf("abr: action %d out of range [0,%d)", action, v.NumLevels()))
	}
	if e.link == nil {
		panic("abr: Step before Reset")
	}
	if e.chunk >= v.NumChunks() {
		panic("abr: Step after episode end")
	}

	size := v.SizesBytes[e.chunk][action]
	dl := e.link.FetchBytes(size)
	var rebuf float64
	rebuf, e.bufferSec = playout(e.bufferSec, dl, v.ChunkSec)

	// If the buffer exceeds its cap, the client idles (no download in
	// flight) while playback drains it back to the cap.
	if e.bufferSec > e.cfg.BufferCapSec {
		e.link.AdvanceBy(e.bufferSec - e.cfg.BufferCapSec)
		e.bufferSec = e.cfg.BufferCapSec
	}

	thr := size * 8 / 1e6 / dl // Mbps, as the client would measure it
	e.thrHist = append(e.thrHist, thr)
	e.dlHist = append(e.dlHist, dl)

	prevMbps := -1.0
	if e.lastLevel >= 0 {
		prevMbps = v.BitrateMbps(e.lastLevel)
	}
	qoe := ChunkQoE(v.BitrateMbps(action), prevMbps, rebuf)

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

// playout is the client buffer over one chunk download of dl seconds
// starting with buf seconds buffered: playback stalls for whatever of
// the download the buffer does not cover, then the chunk is appended.
func playout(buf, dl, chunkSec float64) (rebuf, next float64) {
	return math.Max(0, dl-buf), math.Max(buf-dl, 0) + chunkSec
}

// analyticLink is Pensieve's download model: the trace capacity,
// discounted by eff, integrated from trace time t, plus rtt per
// request.
type analyticLink struct {
	tr  *trace.Trace
	t   float64 // seconds into the (wrapping) trace
	rtt float64
	eff float64
}

// FetchBytes implements Link: it integrates the piecewise-constant
// trace capacity from the link's clock until size bytes are through,
// then adds the request's round trip.
func (l *analyticLink) FetchBytes(size float64) float64 {
	start := l.t
	remaining := size
	t := start
	for remaining > 0 {
		mbps := math.Max(l.tr.BandwidthAt(t), minSimMbps)
		bytesPerSec := mbps * 1e6 / 8 * l.eff
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
	l.t = t + l.rtt
	return t - start + l.rtt
}

// AdvanceBy implements Link.
func (l *analyticLink) AdvanceBy(dt float64) { l.t += dt }

// LastChunk returns details of the most recent chunk download.
func (e *Env) LastChunk() ChunkResult { return e.lastResult }

// observation builds the Pensieve 6×8 state matrix.
func (e *Env) observation() []float64 {
	return BuildObservation(e.cfg.Video, e.lastLevel, e.bufferSec, e.chunk, e.thrHist, e.dlHist)
}
