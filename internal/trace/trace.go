// Package trace models network throughput traces: the time-varying link
// capacities that drive both the chunk-level ABR simulator and the
// packet-level emulator. It provides the paper's six datasets — synthetic
// i.i.d. traces drawn from Gamma(1,2), Gamma(2,2), Logistic(4,0.5) and
// Exponential(1), plus Markov-modulated stand-ins for the Norway 3G/HSDPA
// and Belgium 4G/LTE measurement campaigns — together with train/
// validation/test splitting and import/export in both a simple "cooked"
// format and the MahiMahi packet-delivery format.
package trace

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"

	"osap/internal/stats"
)

// Trace is a piecewise-constant throughput series: Mbps[i] is the link
// capacity during second i. Traces wrap around when read past the end,
// matching how Pensieve's simulator and MahiMahi loop input traces.
type Trace struct {
	// Name identifies the trace (e.g. "norway/train/17").
	Name string
	// Mbps holds one capacity sample per second.
	Mbps []float64
}

// Duration returns the trace length in seconds.
func (t *Trace) Duration() float64 { return float64(len(t.Mbps)) }

// BandwidthAt returns the capacity in Mbps at time tSec (seconds),
// wrapping modulo the trace duration. It panics on an empty trace.
func (t *Trace) BandwidthAt(tSec float64) float64 {
	if len(t.Mbps) == 0 {
		panic("trace: BandwidthAt on empty trace")
	}
	idx := int(math.Mod(tSec, t.Duration()))
	if idx < 0 {
		idx += len(t.Mbps)
	}
	return t.Mbps[idx]
}

// Mean returns the average capacity in Mbps.
func (t *Trace) Mean() float64 { return stats.Mean(t.Mbps) }

// Std returns the capacity standard deviation in Mbps.
func (t *Trace) Std() float64 { return stats.Std(t.Mbps) }

// WriteCooked writes the trace in "cooked" text form: one line per
// second, "<t_seconds>\t<mbps>".
func (t *Trace) WriteCooked(w io.Writer) error {
	bw := bufio.NewWriter(w)
	for i, v := range t.Mbps {
		if _, err := fmt.Fprintf(bw, "%d\t%.6f\n", i, v); err != nil {
			return fmt.Errorf("trace: write cooked: %w", err)
		}
	}
	return bw.Flush()
}

// ReadCooked parses a cooked trace written by WriteCooked. Lines may also
// contain a single bandwidth column (timestamps implied).
func ReadCooked(r io.Reader, name string) (*Trace, error) {
	sc := bufio.NewScanner(r)
	tr := &Trace{Name: name}
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		var bwField string
		switch len(fields) {
		case 1:
			bwField = fields[0]
		case 2:
			bwField = fields[1]
		default:
			return nil, fmt.Errorf("trace: cooked line %d: want 1 or 2 fields, got %d", lineNo, len(fields))
		}
		bw, err := strconv.ParseFloat(bwField, 64)
		if err != nil {
			return nil, fmt.Errorf("trace: cooked line %d: %w", lineNo, err)
		}
		if bw < 0 {
			return nil, fmt.Errorf("trace: cooked line %d: negative bandwidth %v", lineNo, bw)
		}
		tr.Mbps = append(tr.Mbps, bw)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("trace: read cooked: %w", err)
	}
	if len(tr.Mbps) == 0 {
		return nil, fmt.Errorf("trace: cooked input %q is empty", name)
	}
	return tr, nil
}

// mahimahi constants: MahiMahi trace files list one millisecond timestamp
// per delivery opportunity of one MTU-sized (1500 byte) packet.
const (
	mtuBytes    = 1500
	mtuBits     = mtuBytes * 8
	msPerSecond = 1000
	// maxMahiMahiSec bounds the trace ReadMahiMahi builds, one day: its
	// per-second counts grow to the last timestamp, so one huge line
	// would otherwise ask for that many ints.
	maxMahiMahiSec = 24 * 60 * 60
)

// WriteMahiMahi converts the trace to MahiMahi's packet-delivery format:
// for each second, capacity Mbps[i] yields floor(Mbps*1e6/12000) delivery
// opportunities spaced evenly within that second.
func (t *Trace) WriteMahiMahi(w io.Writer) error {
	bw := bufio.NewWriter(w)
	for sec, mbps := range t.Mbps {
		pkts := int(mbps * 1e6 / mtuBits)
		if pkts <= 0 {
			continue
		}
		for p := 0; p < pkts; p++ {
			// Timestamps are 1-based milliseconds within the second.
			ts := sec*msPerSecond + (p*msPerSecond)/pkts + 1
			if _, err := fmt.Fprintf(bw, "%d\n", ts); err != nil {
				return fmt.Errorf("trace: write mahimahi: %w", err)
			}
		}
	}
	return bw.Flush()
}

// ReadMahiMahi parses a MahiMahi packet-delivery trace back into a
// per-second Mbps series. durationSec > 0 forces the output length
// (zero-filling trailing idle seconds); pass 0 to infer the duration from
// the last timestamp. Timestamps are 1-based, so one below 1 ms is
// refused, as is one past one day.
//
//osap:ignore deadcode the reference reader cmd/tracegen's tests check its MahiMahi output with
func ReadMahiMahi(r io.Reader, name string, durationSec int) (*Trace, error) {
	sc := bufio.NewScanner(r)
	var counts []int
	lineNo := 0
	last := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		ts, err := strconv.Atoi(line)
		if err != nil {
			return nil, fmt.Errorf("trace: mahimahi line %d: %w", lineNo, err)
		}
		if ts < 1 {
			return nil, fmt.Errorf("trace: mahimahi line %d: timestamp %d ms is below 1 ms", lineNo, ts)
		}
		if ts < last {
			return nil, fmt.Errorf("trace: mahimahi line %d: timestamps not monotone", lineNo)
		}
		if ts > maxMahiMahiSec*msPerSecond {
			return nil, fmt.Errorf("trace: mahimahi line %d: timestamp %d ms is past the %d s limit", lineNo, ts, maxMahiMahiSec)
		}
		last = ts
		sec := (ts - 1) / msPerSecond
		for len(counts) <= sec {
			counts = append(counts, 0)
		}
		counts[sec]++
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("trace: read mahimahi: %w", err)
	}
	if durationSec > 0 {
		for len(counts) < durationSec {
			counts = append(counts, 0)
		}
		counts = counts[:durationSec]
	}
	if len(counts) == 0 {
		return nil, fmt.Errorf("trace: mahimahi input %q is empty", name)
	}
	tr := &Trace{Name: name, Mbps: make([]float64, len(counts))}
	for i, c := range counts {
		tr.Mbps[i] = float64(c) * mtuBits / 1e6
	}
	return tr, nil
}
