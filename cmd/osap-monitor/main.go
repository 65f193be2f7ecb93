// Command osap-monitor is a standalone out-of-distribution monitor for a
// scalar metric stream (throughput, latency, request rate, …), built
// from the U_S components: windowed [mean, std] features, a one-class
// SVM fitted on a calibration series, and the paper's l-consecutive
// trigger.
//
// Usage:
//
//	osap-monitor -fit calibration.txt [-window 10] [-k 5] [-nu 0.05] [-l 3] < live_stream.txt
//
// Both inputs are one sample per line (blank lines and #-comments
// ignored). The stream is processed line by line as it arrives and
// every report is flushed immediately, so the monitor works live on a
// pipe (`tail -f metrics.log | osap-monitor -fit calib.txt`): each
// out-of-distribution window is reported as it is detected, and when
// the trigger fires the monitor prints an ALERT with the stream
// position. Exit status is 2 if the trigger fired, 0 otherwise.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"strings"

	"osap"
	"osap/internal/buildinfo"
)

func main() {
	fit := flag.String("fit", "", "file of in-distribution calibration samples (required)")
	window := flag.Int("window", 10, "samples per [mean,std] summary window")
	k := flag.Int("k", 5, "summary windows per detector sample")
	nu := flag.Float64("nu", 0.05, "OC-SVM nu (upper bound on calibration outlier fraction)")
	l := flag.Int("l", 3, "consecutive OOD windows required to alert")
	quiet := flag.Bool("quiet", false, "only print the final alert/summary")
	version := flag.Bool("version", false, "print version and exit")
	flag.Parse()

	if *version {
		buildinfo.Print(os.Stdout, "osap-monitor")
		return
	}
	// Line-buffer stdout so live reports survive piping: run flushes
	// after every report it writes.
	out := bufio.NewWriter(os.Stdout)
	fired, err := run(*fit, *window, *k, *nu, *l, *quiet, os.Stdin, out)
	out.Flush()
	if err != nil {
		fmt.Fprintln(os.Stderr, "osap-monitor:", err)
		os.Exit(1)
	}
	if fired {
		os.Exit(2)
	}
}

// eachSample calls fn with the sample on every line of r, skipping
// blank lines and #-comments. A line that is not a finite number is an
// error naming the line: NaN and ±Inf parse, but no window holding
// one is a state the OC-SVM can score.
func eachSample(r io.Reader, fn func(v float64)) error {
	sc := bufio.NewScanner(r)
	for lineNo := 1; sc.Scan(); lineNo++ {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		v, err := strconv.ParseFloat(line, 64)
		if err == nil && (math.IsNaN(v) || math.IsInf(v, 0)) {
			err = fmt.Errorf("%q is not a finite number", line)
		}
		if err != nil {
			return fmt.Errorf("line %d: %w", lineNo, err)
		}
		fn(v)
	}
	return sc.Err()
}

// readSamples parses one float per line.
func readSamples(r io.Reader) ([]float64, error) {
	var out []float64
	err := eachSample(r, func(v float64) { out = append(out, v) })
	return out, err
}

func run(fitPath string, window, k int, nu float64, l int, quiet bool, stream io.Reader, out io.Writer) (bool, error) {
	if fitPath == "" {
		return false, fmt.Errorf("-fit is required")
	}
	f, err := os.Open(fitPath)
	if err != nil {
		return false, err
	}
	defer f.Close()
	calib, err := readSamples(f)
	if err != nil {
		return false, fmt.Errorf("read calibration: %w", err)
	}

	sigCfg := osap.StateSignalConfig{ThroughputWindow: window, K: k}
	if err := sigCfg.Validate(); err != nil {
		return false, err
	}
	tc := osap.StateTriggerConfig()
	tc.L = l
	if err := tc.Validate(); err != nil {
		return false, err
	}
	feats := osap.BuildStateFeatures(calib, sigCfg)
	if len(feats) < 10 {
		return false, fmt.Errorf("calibration series too short: %d samples yield %d features (need ≥ 10)",
			len(calib), len(feats))
	}
	model, err := osap.TrainOCSVM(feats, osap.OCSVMConfig{Nu: nu})
	if err != nil {
		return false, err
	}
	// Flush after every report so the monitor is live when out is
	// buffered (the CLI wraps stdout in a bufio.Writer).
	flush := func() {}
	if f, ok := out.(interface{ Flush() error }); ok {
		flush = func() { f.Flush() } //nolint:errcheck // surfaced by the final flush
	}
	fmt.Fprintf(out, "fitted on %d calibration samples (%d features, %d SVs)\n",
		len(calib), len(feats), model.NumSVs())
	flush()

	signal, err := osap.NewStateSignal(model, func(obs []float64) float64 { return obs[0] }, sigCfg)
	if err != nil {
		return false, err
	}
	trigger := osap.NewTrigger(tc)

	// Process the stream one line at a time as it arrives — never
	// buffer the whole input — so reports appear while the producer is
	// still running.
	samples, oodCount := 0, 0
	err = eachSample(stream, func(v float64) {
		i := samples
		samples++
		score := signal.Observe([]float64{v})
		if score > tc.Threshold {
			oodCount++
			if !quiet {
				fmt.Fprintf(out, "step %d: OOD (value %g)\n", i, v)
				flush()
			}
		}
		if trigger.Step(score) && trigger.FiredAt == i {
			fmt.Fprintf(out, "ALERT: distribution change at stream position %d\n", i)
			flush()
		}
	})
	if err != nil {
		return trigger.Fired(), fmt.Errorf("read stream: %w", err)
	}
	fmt.Fprintf(out, "processed %d samples: %d OOD windows, alert=%v\n",
		samples, oodCount, trigger.Fired())
	flush()
	return trigger.Fired(), nil
}
