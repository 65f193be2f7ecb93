package main

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"osap"
	"osap/internal/stats"
)

// writeSeries writes one sample per line from the sampler.
func writeSeries(t *testing.T, s stats.Sampler, n int, seed uint64) string {
	t.Helper()
	rng := stats.NewRNG(seed)
	var b strings.Builder
	b.WriteString("# test series\n")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "%g\n", s.Sample(rng))
	}
	path := filepath.Join(t.TempDir(), "series.txt")
	if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func streamOf(t *testing.T, s stats.Sampler, n int, seed uint64) string {
	t.Helper()
	rng := stats.NewRNG(seed)
	var b strings.Builder
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "%g\n", s.Sample(rng))
	}
	return b.String()
}

func TestMonitorQuietInDistribution(t *testing.T) {
	dist := stats.Gamma{Shape: 2, Scale: 2}
	fit := writeSeries(t, dist, 3000, 1)
	var out strings.Builder
	fired, err := run(fit, 10, 5, 0.02, 12, true, strings.NewReader(streamOf(t, dist, 150, 2)), &out)
	if err != nil {
		t.Fatal(err)
	}
	if fired {
		t.Errorf("monitor alerted on in-distribution stream:\n%s", out.String())
	}
}

func TestMonitorAlertsOnShift(t *testing.T) {
	fit := writeSeries(t, stats.Gamma{Shape: 2, Scale: 2}, 3000, 1)
	var out strings.Builder
	shifted := stats.Normal{Mu: 15, Sigma: 0.5}
	fired, err := run(fit, 10, 5, 0.05, 3, true, strings.NewReader(streamOf(t, shifted, 100, 3)), &out)
	if err != nil {
		t.Fatal(err)
	}
	if !fired {
		t.Errorf("monitor missed a large shift:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "ALERT") {
		t.Error("no ALERT line printed")
	}

	// The OOD count is the number of stream windows the OC-SVM does not
	// classify in-distribution (Decision < 0), whatever their margin.
	f, err := os.Open(fit)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	calib, err := readSamples(f)
	if err != nil {
		t.Fatal(err)
	}
	cfg := osap.StateSignalConfig{ThroughputWindow: 10, K: 5}
	model, err := osap.TrainOCSVM(osap.BuildStateFeatures(calib, cfg), osap.OCSVMConfig{Nu: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	series, err := readSamples(strings.NewReader(streamOf(t, shifted, 100, 3)))
	if err != nil {
		t.Fatal(err)
	}
	novel := 0
	for _, feat := range osap.BuildStateFeatures(series, cfg) {
		if model.Decision(feat) < 0 {
			novel++
		}
	}
	if want := fmt.Sprintf("processed 100 samples: %d OOD windows,", novel); !strings.Contains(out.String(), want) {
		t.Errorf("want %q in the report:\n%s", want, out.String())
	}
}

// lockedBuffer is a goroutine-safe sink standing in for the terminal
// on the far side of the bufio.Writer.
type lockedBuffer struct {
	mu sync.Mutex
	b  strings.Builder
}

func (l *lockedBuffer) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.Write(p)
}

func (l *lockedBuffer) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.String()
}

// TestMonitorLiveReportsBeforeEOF drives the monitor through an
// io.Pipe, exactly as when fed by `tail -f`: reports must reach the
// underlying sink (through the bufio.Writer, i.e. be flushed) while
// the input side of the pipe is still open. The pre-streaming monitor
// buffered everything until EOF and fails this test.
func TestMonitorLiveReportsBeforeEOF(t *testing.T) {
	fit := writeSeries(t, stats.Gamma{Shape: 2, Scale: 2}, 3000, 1)
	pr, pw := io.Pipe()
	sink := &lockedBuffer{}
	out := bufio.NewWriter(sink)

	type result struct {
		fired bool
		err   error
	}
	done := make(chan result, 1)
	go func() {
		fired, err := run(fit, 10, 5, 0.05, 3, false, pr, out)
		out.Flush()
		done <- result{fired, err}
	}()

	// Feed clearly out-of-distribution samples one line at a time and
	// wait for a flushed report before closing the pipe.
	shifted := stats.Normal{Mu: 15, Sigma: 0.5}
	rng := stats.NewRNG(9)
	deadline := time.Now().Add(20 * time.Second)
	reported := false
	for i := 0; i < 5000 && !reported && time.Now().Before(deadline); i++ {
		if _, err := fmt.Fprintf(pw, "%g\n", shifted.Sample(rng)); err != nil {
			t.Fatalf("pipe write: %v", err)
		}
		// The monitor flushes synchronously right after consuming the
		// line, but the pipe hand-off is asynchronous; poll briefly.
		for j := 0; j < 100; j++ {
			if s := sink.String(); strings.Contains(s, "OOD") || strings.Contains(s, "ALERT") {
				reported = true
				break
			}
			time.Sleep(100 * time.Microsecond)
		}
	}
	if !reported {
		pw.Close()
		<-done
		t.Fatalf("no report reached the sink before input EOF; sink:\n%s", sink.String())
	}

	// Keep the shift going long enough for the l-consecutive trigger,
	// then end the stream.
	for i := 0; i < 100; i++ {
		if _, err := fmt.Fprintf(pw, "%g\n", shifted.Sample(rng)); err != nil {
			t.Fatalf("pipe write: %v", err)
		}
	}
	pw.Close()
	res := <-done
	if res.err != nil {
		t.Fatalf("run: %v", res.err)
	}
	if !res.fired {
		t.Error("trigger did not fire on a sustained large shift")
	}
	final := sink.String()
	if !strings.Contains(final, "ALERT") {
		t.Errorf("no ALERT line in output:\n%s", final)
	}
	if !strings.Contains(final, "processed") {
		t.Errorf("no final summary line in output:\n%s", final)
	}
}

func TestMonitorErrors(t *testing.T) {
	var out strings.Builder
	if _, err := run("", 10, 5, 0.05, 3, true, strings.NewReader(""), &out); err == nil {
		t.Error("missing -fit accepted")
	}
	if _, err := run("/nonexistent", 10, 5, 0.05, 3, true, strings.NewReader(""), &out); err == nil {
		t.Error("missing fit file accepted")
	}
	short := writeSeries(t, stats.Uniform{Low: 0, High: 1}, 8, 1)
	if _, err := run(short, 10, 5, 0.05, 3, true, strings.NewReader(""), &out); err == nil {
		t.Error("too-short calibration accepted")
	}
	garbage := filepath.Join(t.TempDir(), "bad.txt")
	if err := os.WriteFile(garbage, []byte("abc\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := run(garbage, 10, 5, 0.05, 3, true, strings.NewReader(""), &out); err == nil {
		t.Error("garbage calibration accepted")
	}
	good := writeSeries(t, stats.Uniform{Low: 0, High: 1}, 500, 1)
	if _, err := run(good, 10, 5, 0.05, 3, true, strings.NewReader("xyz\n"), &out); err == nil {
		t.Error("garbage stream accepted")
	}
	if _, err := run(good, 1, 5, 0.05, 3, true, strings.NewReader(""), &out); err == nil {
		t.Error("invalid window accepted")
	}
	// A bad -l or -nu is a usage error (exit 1), never a panic or a
	// late failure.
	for _, l := range []int{0, -2} {
		if _, err := run(good, 10, 5, 0.05, l, true, strings.NewReader(""), &out); err == nil {
			t.Errorf("-l %d accepted", l)
		}
	}
	if _, err := run(good, 10, 5, math.NaN(), 3, true, strings.NewReader(""), &out); err == nil || !strings.Contains(err.Error(), "nu NaN") {
		t.Errorf("-nu NaN: err %v, want one naming nu NaN", err)
	}

	// A non-finite sample parses but is refused like garbage, with its
	// line number, in the calibration file and in the stream alike.
	calib, err := os.ReadFile(good)
	if err != nil {
		t.Fatal(err)
	}
	nanFit := filepath.Join(t.TempDir(), "nan.txt")
	if err := os.WriteFile(nanFit, append(calib, "NaN\n"...), 0o644); err != nil {
		t.Fatal(err)
	}
	nanLine := fmt.Sprintf("line %d:", strings.Count(string(calib), "\n")+1)
	if _, err := run(nanFit, 10, 5, 0.05, 3, true, strings.NewReader(""), &out); err == nil || !strings.Contains(err.Error(), nanLine) {
		t.Errorf("NaN calibration sample: err %v, want one naming %q", err, nanLine)
	}
	stream := streamOf(t, stats.Uniform{Low: 0, High: 1}, 100, 2) + "+Inf\n"
	if _, err := run(good, 10, 5, 0.05, 3, true, strings.NewReader(stream), &out); err == nil || !strings.Contains(err.Error(), "line 101:") {
		t.Errorf("+Inf stream sample: err %v, want one naming line 101", err)
	}
}
