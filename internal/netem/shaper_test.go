package netem

import (
	"io"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"

	"osap/internal/abr"
	"osap/internal/trace"
)

// pipeSink drains one side of a net.Pipe so writes don't block.
func pipeSink(t *testing.T) (net.Conn, func() int64) {
	t.Helper()
	a, b := net.Pipe()
	done := make(chan int64, 1)
	go func() {
		n, _ := io.Copy(io.Discard, b)
		done <- n
	}()
	t.Cleanup(func() { a.Close(); b.Close() })
	return a, func() int64 { a.Close(); return <-done }
}

func TestThrottledConnPacing(t *testing.T) {
	// 0.8 Mbps = 100 KB/s. Writing 200 KB should require ~2 s of virtual
	// budget. Inject a fake sleeper so the test runs instantly and
	// record the maximum requested target time.
	conn, drain := pipeSink(t)
	tc := Throttle(conn, constTrace(0.8, 100))
	var maxSleep time.Duration
	base := time.Now()
	tc.start = base
	tc.sleep = func(d time.Duration) {
		// Requested target ≈ elapsed + d; elapsed ≈ 0 in this test.
		if d > maxSleep {
			maxSleep = d
		}
	}
	payload := make([]byte, 200*1024)
	if _, err := tc.Write(payload); err != nil {
		t.Fatal(err)
	}
	got := drain()
	if got != int64(len(payload)) {
		t.Fatalf("sink received %d bytes, want %d", got, len(payload))
	}
	want := 2048.0 / 1000 // 200 KiB at 100,000 B/s ≈ 2.05 s
	if maxSleep.Seconds() < want*0.9 || maxSleep.Seconds() > want*1.2 {
		t.Errorf("max pacing target %.3fs, want ≈ %.2fs", maxSleep.Seconds(), want)
	}
	if tc.sent != int64(len(payload)) {
		t.Errorf("BytesSent = %d", tc.sent)
	}
}

func TestThrottledConnSkipsOutageSeconds(t *testing.T) {
	conn, _ := pipeSink(t)
	// Second 0 dead, second 1 carries 0.8 Mbps.
	tr := &trace.Trace{Name: "o", Mbps: []float64{0, 0.8}}
	tc := Throttle(conn, tr)
	var maxSleep time.Duration
	tc.start = time.Now()
	tc.sleep = func(d time.Duration) {
		if d > maxSleep {
			maxSleep = d
		}
	}
	if _, err := tc.Write(make([]byte, 50*1024)); err != nil {
		t.Fatal(err)
	}
	// 50 KiB needs ~0.51 s of the 100 KB/s second, which starts at t=1.
	if maxSleep.Seconds() < 1.3 || maxSleep.Seconds() > 1.7 {
		t.Errorf("pacing target %.3fs, want ≈ 1.5s", maxSleep.Seconds())
	}
}

func TestThrottledConnRealClockSmoke(t *testing.T) {
	// Real sleeping, small transfer: 0.16 Mbps = 20 KB/s; 8 KB ≈ 0.4 s.
	conn, _ := pipeSink(t)
	tc := Throttle(conn, constTrace(0.16, 10))
	start := time.Now()
	if _, err := tc.Write(make([]byte, 8*1024)); err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	if elapsed < 250*time.Millisecond {
		t.Errorf("transfer finished in %v, pacing not applied", elapsed)
	}
	if elapsed > 2*time.Second {
		t.Errorf("transfer took %v, pacing too aggressive", elapsed)
	}
}

func TestChunkServerServesExactSizes(t *testing.T) {
	video := abr.SyntheticVideo(1, 4, 4)
	srv, err := StartServerBurst(video, nil, 0) // unshaped
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	for _, c := range []struct{ idx, lvl int }{{0, 0}, {3, 5}, {2, 2}} {
		res, err := FetchChunk(nil, srv.URL, c.idx, c.lvl)
		if err != nil {
			t.Fatal(err)
		}
		want := int64(video.SizesBytes[c.idx][c.lvl])
		if res.Bytes != want {
			t.Errorf("chunk %d/%d: got %d bytes, want %d", c.idx, c.lvl, res.Bytes, want)
		}
		if res.ThroughputMbps <= 0 {
			t.Errorf("chunk %d/%d: non-positive throughput", c.idx, c.lvl)
		}
	}
}

func TestChunkServerRejectsBadCoordinates(t *testing.T) {
	video := abr.SyntheticVideo(1, 4, 4)
	srv, err := StartServerBurst(video, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	for _, c := range []struct{ idx, lvl int }{{-1, 0}, {99, 0}, {0, 99}} {
		if _, err := FetchChunk(nil, srv.URL, c.idx, c.lvl); err == nil {
			t.Errorf("chunk %d/%d: expected error", c.idx, c.lvl)
		}
	}
}

func TestChunkServerManifest(t *testing.T) {
	video := abr.SyntheticVideo(1, 4, 4)
	srv, err := StartServerBurst(video, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	resp, err := httpGet(srv.URL + "/manifest")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(resp, "4 6 4") {
		t.Errorf("manifest = %q", resp)
	}
}

func TestThrottledServerShapesThroughput(t *testing.T) {
	// A tiny video over a 0.8 Mbps (100 KB/s) link: a 20 KB chunk should
	// take ≈ 0.2 s, giving a measured throughput close to the trace.
	video := &abr.Video{
		Name:         "tiny",
		BitratesKbps: []float64{40},
		ChunkSec:     4,
		SizesBytes:   [][]float64{{20 * 1024}, {20 * 1024}},
	}
	srv, err := StartServerBurst(video, constTrace(0.8, 60), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	res, err := FetchChunk(nil, srv.URL, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Duration < 120*time.Millisecond {
		t.Errorf("shaped fetch took only %v; shaping absent", res.Duration)
	}
	if res.ThroughputMbps > 1.2 {
		t.Errorf("measured throughput %.2f Mbps exceeds shaped 0.8", res.ThroughputMbps)
	}
}

// httpGet fetches a URL and returns the body as a string.
func httpGet(url string) (string, error) {
	resp, err := http.Get(url)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return string(b), err
}

func TestThrottledConnForfeitsIdleBudget(t *testing.T) {
	// 0.8 Mbps = 100 KB/s link. Write a little, idle for a virtual
	// second, then write 50 KB: without forfeiture the accumulated
	// ~100 KB of budget would let the second write through instantly;
	// with it, only the 32 KB burst allowance survives the idle period.
	conn, _ := pipeSink(t)
	tc := Throttle(conn, constTrace(0.8, 100))
	clock := time.Now()
	virtual := time.Duration(0)
	tc.now = func() time.Time { return clock.Add(virtual) }
	var slept time.Duration
	tc.sleep = func(d time.Duration) { slept += d; virtual += d }

	if _, err := tc.Write(make([]byte, 10*1024)); err != nil {
		t.Fatal(err)
	}
	virtual += time.Second // idle: ~100 KB of budget goes unused
	slept = 0
	if _, err := tc.Write(make([]byte, 50*1024)); err != nil {
		t.Fatal(err)
	}
	// Budget after forfeit ≈ 16 KB burst; 50 KB write must wait for
	// ~34 KB at 100 KB/s ≈ 0.34 s.
	if slept < 100*time.Millisecond {
		t.Errorf("idle budget not forfeited: post-idle write slept only %v", slept)
	}
	if slept > 400*time.Millisecond {
		t.Errorf("post-idle write over-throttled: slept %v", slept)
	}
}
