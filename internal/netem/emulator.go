// Package netem is a MahiMahi-style network emulator: a discrete-event,
// virtual-time emulator (Emulator) that models a trace-driven bottleneck
// link at packet granularity — MTU-sized delivery opportunities derived
// from the trace exactly as MahiMahi schedules them, propagation delay on
// both paths, and a simple ack-clocked transport with slow start.
// PacketLink makes it a link of abr.Env, so the packet-level ABR
// environment is the chunk-level one with a different download model.
package netem

import (
	"fmt"
	"math"

	"osap/internal/abr"
	"osap/internal/trace"
)

// MTUBytes is the emulated packet size, matching MahiMahi's 1500-byte
// delivery opportunities.
const MTUBytes = 1500

// LinkConfig describes the emulated path.
type LinkConfig struct {
	// Trace drives the bottleneck capacity (wraps around at the end).
	Trace *trace.Trace
	// PropDelaySec is the one-way propagation delay; the paper's 80 ms
	// RTT corresponds to 0.04.
	PropDelaySec float64
	// InitialCwnd is the transport's initial window in packets
	// (default 10, as in modern TCP).
	InitialCwnd int
	// MaxCwnd caps the window (default 1024 packets).
	MaxCwnd int
	// SlowStart enables the ack-clocked window ramp; when false the
	// sender is modeled as purely link-limited (back-to-back delivery
	// opportunities), which matches the chunk-level simulator.
	SlowStart bool
}

// DefaultLinkConfig returns the paper's emulation parameters (80 ms RTT)
// with slow start enabled.
func DefaultLinkConfig(tr *trace.Trace) LinkConfig {
	return LinkConfig{
		Trace:        tr,
		PropDelaySec: 0.04,
		InitialCwnd:  10,
		MaxCwnd:      1024,
		SlowStart:    true,
	}
}

// PacketLink returns an abr.EnvConfig.Link that downloads each episode's
// chunks through a fresh Emulator on cfg over the episode's trace
// (cfg.Trace is ignored).
func PacketLink(cfg LinkConfig) func(tr *trace.Trace, startSec float64) (abr.Link, error) {
	return func(tr *trace.Trace, startSec float64) (abr.Link, error) {
		lc := cfg
		lc.Trace = tr
		em, err := NewEmulator(lc, startSec)
		if err != nil {
			return nil, err
		}
		return em, nil
	}
}

// FetchStats describes the packet-level timing of one FetchBytes call.
type FetchStats struct {
	// Packets is the number of MTU packets transferred.
	Packets int
	// FirstByteSec is the time from the request to the first packet's
	// delivery (the "time to first byte").
	FirstByteSec float64
	// DurationSec is the full transfer duration.
	DurationSec float64
	// MeanGapSec is the mean inter-packet delivery gap (0 for
	// single-packet transfers).
	MeanGapSec float64
}

// Emulator is a single-flow discrete-event link emulator with a virtual
// clock. It is not safe for concurrent use.
type Emulator struct {
	cfg LinkConfig
	now float64
	// opportunity cursor: absolute second index (not wrapped) and
	// opportunity index within that second.
	oppSec int
	oppIdx int
	// stats
	pktsDelivered int
	lastStats     FetchStats
}

// NewEmulator validates the configuration and positions the virtual
// clock at startSec.
func NewEmulator(cfg LinkConfig, startSec float64) (*Emulator, error) {
	if cfg.Trace == nil || len(cfg.Trace.Mbps) == 0 {
		return nil, fmt.Errorf("netem: LinkConfig.Trace is required and non-empty")
	}
	if !(cfg.PropDelaySec >= 0) || math.IsInf(cfg.PropDelaySec, 1) {
		return nil, fmt.Errorf("netem: propagation delay %v is not a finite non-negative number", cfg.PropDelaySec)
	}
	if math.IsNaN(startSec) || math.IsInf(startSec, 0) {
		return nil, fmt.Errorf("netem: start time %v is not finite", startSec)
	}
	if cfg.InitialCwnd <= 0 {
		cfg.InitialCwnd = 10
	}
	if cfg.MaxCwnd <= 0 {
		cfg.MaxCwnd = 1024
	}
	if cfg.MaxCwnd < cfg.InitialCwnd {
		return nil, fmt.Errorf("netem: MaxCwnd %d < InitialCwnd %d", cfg.MaxCwnd, cfg.InitialCwnd)
	}
	// The link must be able to deliver at least one packet somewhere in
	// the trace, or fetches would never complete.
	any := false
	for _, mbps := range cfg.Trace.Mbps {
		if pktsPerSec(mbps) > 0 {
			any = true
			break
		}
	}
	if !any {
		return nil, fmt.Errorf("netem: trace %q cannot deliver a single packet", cfg.Trace.Name)
	}
	if startSec < 0 {
		startSec = 0
	}
	e := &Emulator{cfg: cfg, now: startSec}
	e.oppSec = int(math.Floor(startSec))
	e.oppIdx = 0
	e.syncOpportunityCursor(startSec)
	return e, nil
}

// pktsPerSec converts a capacity sample to MahiMahi delivery
// opportunities.
func pktsPerSec(mbps float64) int { return int(mbps * 1e6 / (MTUBytes * 8)) }

// rateAt returns the delivery opportunities during absolute second sec
// (the trace wraps).
func (e *Emulator) rateAt(sec int) int {
	n := len(e.cfg.Trace.Mbps)
	idx := sec % n
	if idx < 0 {
		idx += n
	}
	return pktsPerSec(e.cfg.Trace.Mbps[idx])
}

// syncOpportunityCursor advances the cursor so the next opportunity is
// the first one at a time >= t.
func (e *Emulator) syncOpportunityCursor(t float64) {
	sec := int(math.Floor(t))
	if sec > e.oppSec || (sec == e.oppSec && e.oppIdx == 0) {
		e.oppSec = sec
		e.oppIdx = 0
	}
	for {
		r := e.rateAt(e.oppSec)
		if r > 0 {
			for e.oppIdx < r {
				opp := float64(e.oppSec) + float64(e.oppIdx)/float64(r)
				if opp >= t {
					return
				}
				e.oppIdx++
			}
		}
		e.oppSec++
		e.oppIdx = 0
	}
}

// nextOpportunity consumes and returns the next delivery opportunity at
// or after time t.
func (e *Emulator) nextOpportunity(t float64) float64 {
	e.syncOpportunityCursor(t)
	for {
		r := e.rateAt(e.oppSec)
		if r > 0 && e.oppIdx < r {
			opp := float64(e.oppSec) + float64(e.oppIdx)/float64(r)
			e.oppIdx++
			return opp
		}
		e.oppSec++
		e.oppIdx = 0
	}
}

// AdvanceBy moves the virtual clock forward by dt seconds.
func (e *Emulator) AdvanceBy(dt float64) {
	if dt > 0 {
		e.now += dt
	}
}

// FetchBytes transfers size bytes over the emulated path, advancing the
// virtual clock to the completion time, and returns the transfer
// duration (including the request's propagation delay and the final
// packet's delivery).
func (e *Emulator) FetchBytes(size float64) float64 {
	if size <= 0 {
		return 2 * e.cfg.PropDelaySec
	}
	start := e.now
	pkts := int(math.Ceil(size / MTUBytes))

	// The request reaches the server after one propagation delay; the
	// server then streams packets through the bottleneck.
	serverStart := start + e.cfg.PropDelaySec

	var lastDelivery, firstDelivery float64
	if !e.cfg.SlowStart {
		// Link-limited: packets occupy consecutive delivery
		// opportunities.
		t := serverStart
		for i := 0; i < pkts; i++ {
			t = e.nextOpportunity(t)
			if i == 0 {
				firstDelivery = t
			}
			lastDelivery = t
		}
	} else {
		// Ack-clocked transport: at most cwnd packets in flight; each
		// delivery generates an ack one propagation delay later, which
		// releases the next packet and grows the window.
		cwnd := e.cfg.InitialCwnd
		inflight := 0
		ackQueue := make([]float64, 0, cwnd)
		t := serverStart
		for i := 0; i < pkts; i++ {
			for inflight >= cwnd {
				ack := ackQueue[0]
				ackQueue = ackQueue[1:]
				if ack > t {
					t = ack
				}
				inflight--
				if cwnd < e.cfg.MaxCwnd {
					cwnd++
				}
			}
			d := e.nextOpportunity(t)
			if i == 0 {
				firstDelivery = d
			}
			lastDelivery = d
			ackQueue = append(ackQueue, d+e.cfg.PropDelaySec)
			inflight++
			if d > t {
				t = d
			}
		}
	}

	e.pktsDelivered += pkts
	done := lastDelivery + e.cfg.PropDelaySec
	e.lastStats = FetchStats{
		Packets:      pkts,
		FirstByteSec: firstDelivery + e.cfg.PropDelaySec - start,
		DurationSec:  done - start,
	}
	if pkts > 1 {
		e.lastStats.MeanGapSec = (lastDelivery - firstDelivery) / float64(pkts-1)
	}
	e.now = done
	return done - start
}
