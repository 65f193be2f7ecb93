package netem

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"sync"
	"testing"
	"time"

	"osap/internal/abr"
)

func testVideo() *abr.Video { return abr.SyntheticVideo(1, 8, 4) }

func TestServerManifestAndChunk(t *testing.T) {
	v := testVideo()
	srv, err := StartServerBurst(v, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/manifest")
	if err != nil {
		t.Fatal(err)
	}
	var chunks, levels int
	var chunkSec float64
	if _, err := fmt.Fscan(resp.Body, &chunks, &levels, &chunkSec); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if chunks != v.NumChunks() || levels != v.NumLevels() || chunkSec != v.ChunkSec {
		t.Errorf("manifest = %d %d %g, want %d %d %g",
			chunks, levels, chunkSec, v.NumChunks(), v.NumLevels(), v.ChunkSec)
	}

	res, err := FetchChunk(nil, srv.URL, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Bytes != int64(v.SizesBytes[0][0]) {
		t.Errorf("chunk bytes = %d, want %d", res.Bytes, int64(v.SizesBytes[0][0]))
	}

	for _, bad := range []string{"/chunk?index=-1&level=0", "/chunk?index=0&level=99", "/chunk?index=x&level=0", "/nope"} {
		resp, err := http.Get(srv.URL + bad)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			t.Errorf("GET %s succeeded, want error status", bad)
		}
	}
}

// TestShutdownWaitsForInFlight starts a throttled transfer that takes
// a while, then shuts down mid-download: Shutdown must let the
// transfer finish, refuse new connections, and only then return.
func TestShutdownWaitsForInFlight(t *testing.T) {
	v := testVideo()
	// Lowest level ≈ 150 kB; at 2 Mbps the transfer takes ~0.6 s.
	srv, err := StartServerBurst(v, constTrace(2.0, 120), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	type fetch struct {
		res FetchResult
		err error
	}
	done := make(chan fetch, 1)
	go func() {
		res, err := FetchChunk(nil, srv.URL, 0, 0)
		done <- fetch{res, err}
	}()
	time.Sleep(100 * time.Millisecond) // let the transfer get going

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	start := time.Now()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("graceful shutdown: %v", err)
	}
	f := <-done
	if f.err != nil {
		t.Fatalf("in-flight fetch dropped by graceful shutdown: %v", f.err)
	}
	if f.res.Bytes != int64(v.SizesBytes[0][0]) {
		t.Errorf("in-flight fetch truncated: %d of %d bytes", f.res.Bytes, int64(v.SizesBytes[0][0]))
	}
	if waited := time.Since(start); waited < 200*time.Millisecond {
		t.Errorf("Shutdown returned after %v, before the ~0.6s transfer could finish", waited)
	}
	if _, err := FetchChunk(nil, srv.URL, 0, 0); err == nil {
		t.Error("new connection accepted after shutdown")
	}
}

// TestShutdownContextCancel verifies the forced path: when the drain
// context expires, Shutdown reports the context error and tears down
// the remaining connections instead of hanging.
func TestShutdownContextCancel(t *testing.T) {
	v := testVideo()
	// Highest level ≈ 2 MB at 1 Mbps: a transfer of many seconds.
	srv, err := StartServerBurst(v, constTrace(1.0, 120), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	errc := make(chan error, 1)
	go func() {
		_, err := FetchChunk(nil, srv.URL, 0, v.NumLevels()-1)
		errc <- err
	}()
	time.Sleep(100 * time.Millisecond)

	ctx, cancel := context.WithTimeout(context.Background(), 150*time.Millisecond)
	defer cancel()
	if err := srv.Shutdown(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Shutdown error = %v, want context.DeadlineExceeded", err)
	}
	select {
	case err := <-errc:
		if err == nil {
			t.Error("multi-second transfer finished within 250ms — it should have been cut off")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("fetch still blocked after forced shutdown")
	}
}

// TestConcurrentFetchRace hammers one server from many goroutines and
// shuts down gracefully afterwards; run under -race it checks the
// handler and shutdown paths for data races.
func TestConcurrentFetchRace(t *testing.T) {
	v := testVideo()
	srv, err := StartServerBurst(v, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	const workers = 8
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			client := &http.Client{}
			for i := 0; i < 6; i++ {
				idx := (w + i) % v.NumChunks()
				lvl := (w * i) % v.NumLevels()
				res, err := FetchChunk(client, srv.URL, idx, lvl)
				if err != nil {
					errs <- err
					return
				}
				if res.Bytes != int64(v.SizesBytes[idx][lvl]) {
					errs <- fmt.Errorf("chunk %d/%d: got %d bytes, want %d",
						idx, lvl, res.Bytes, int64(v.SizesBytes[idx][lvl]))
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Errorf("shutdown after load: %v", err)
	}
}

// TestStalledReaderCannotWedgeServer opens a chunk transfer, reads the
// first bytes, then stops reading entirely. The handler's rolling
// write deadline must error the transfer out once kernel buffers fill,
// so graceful shutdown completes instead of hanging on the wedged
// connection forever.
func TestStalledReaderCannotWedgeServer(t *testing.T) {
	video := &abr.Video{
		Name:         "stall",
		BitratesKbps: []float64{16000},
		ChunkSec:     4,
		// Far past any loopback socket buffering, so the handler is
		// guaranteed to block on the stalled reader.
		SizesBytes: [][]float64{{32 << 20}},
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	hs := &http.Server{Handler: &ChunkServer{Video: video, StallTimeout: 200 * time.Millisecond}}
	go hs.Serve(ln) //nolint:errcheck // Serve returns on Shutdown

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := fmt.Fprintf(conn, "GET /chunk?index=0&level=0 HTTP/1.1\r\nHost: stall\r\n\r\n"); err != nil {
		t.Fatal(err)
	}
	// Confirm the transfer started, then never read again.
	if _, err := conn.Read(make([]byte, 1024)); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	start := time.Now()
	if err := hs.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown wedged by stalled reader: %v", err)
	}
	if el := time.Since(start); el > 10*time.Second {
		t.Fatalf("shutdown took %v despite the write deadline", el)
	}
}
