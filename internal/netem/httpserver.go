package netem

import (
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"strconv"
	"time"

	"osap/internal/abr"
	"osap/internal/trace"
)

// ChunkServer serves a synthetic video over HTTP, one chunk per request:
//
//	GET /chunk?index=<i>&level=<l>  →  SizesBytes[i][l] bytes
//	GET /manifest                   →  "<chunks> <levels> <chunkSec>"
//
// It stands in for the DASH origin server in the live-streaming example.
type ChunkServer struct {
	Video *abr.Video
	// StallTimeout bounds how long one block write may wait on a client
	// that has stopped reading (0 → 30s). The deadline is rolling —
	// every block that makes progress extends it — so slow-but-live
	// throttled transfers are unaffected; only a fully stalled reader
	// times its handler out instead of wedging the emulator.
	StallTimeout time.Duration
}

// defaultStallTimeout protects every chunk server, including
// zero-value ones, from stalled readers.
const defaultStallTimeout = 30 * time.Second

// ServeHTTP implements http.Handler.
func (s *ChunkServer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	switch r.URL.Path {
	case "/manifest":
		fmt.Fprintf(w, "%d %d %g\n", s.Video.NumChunks(), s.Video.NumLevels(), s.Video.ChunkSec)
	case "/chunk":
		idx, err1 := strconv.Atoi(r.URL.Query().Get("index"))
		lvl, err2 := strconv.Atoi(r.URL.Query().Get("level"))
		if err1 != nil || err2 != nil ||
			idx < 0 || idx >= s.Video.NumChunks() ||
			lvl < 0 || lvl >= s.Video.NumLevels() {
			http.Error(w, "bad chunk coordinates", http.StatusBadRequest)
			return
		}
		size := int(s.Video.SizesBytes[idx][lvl])
		w.Header().Set("Content-Length", strconv.Itoa(size))
		w.Header().Set("Content-Type", "video/mp4")
		// Stream the payload in MTU-ish blocks so pacing applies.
		buf := make([]byte, 4096)
		for i := range buf {
			buf[i] = byte(i)
		}
		ctx := r.Context()
		stall := s.StallTimeout
		if stall <= 0 {
			stall = defaultStallTimeout
		}
		rc := http.NewResponseController(w)
		for size > 0 {
			// A throttled transfer can take seconds; bail between
			// blocks once the client (or server shutdown) cancels.
			select {
			case <-ctx.Done():
				return
			default:
			}
			// Rolling write deadline: errors are best-effort (a wrapped
			// ResponseWriter without deadline support just loses the
			// stall protection, not the transfer).
			rc.SetWriteDeadline(time.Now().Add(stall)) //nolint:errcheck
			n := size
			if n > len(buf) {
				n = len(buf)
			}
			if _, err := w.Write(buf[:n]); err != nil {
				return // client went away or stalled past the deadline
			}
			size -= n
		}
	default:
		http.NotFound(w, r)
	}
}

// Server is a running throttled chunk server.
type Server struct {
	URL string
	srv *http.Server
	ln  net.Listener
}

// StartServerBurst serves video on a loopback listener whose connections
// are shaped to tr (pass nil for an unshaped server), with an explicit
// per-connection burst allowance in bytes (0 keeps the default). Close
// the returned Server when done.
func StartServerBurst(video *abr.Video, tr *trace.Trace, burst int64) (*Server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("netem: listen: %w", err)
	}
	var lst net.Listener = ln
	if tr != nil {
		lst = &ThrottledListener{Listener: ln, Trace: tr, Burst: burst}
	}
	srv := &http.Server{Handler: &ChunkServer{Video: video}}
	go srv.Serve(lst) //nolint:errcheck // Serve returns on Close
	return &Server{URL: "http://" + ln.Addr().String(), srv: srv, ln: ln}, nil
}

// Close shuts the server down immediately, dropping any in-flight
// transfers.
func (s *Server) Close() error { return s.srv.Close() }

// FetchResult describes one HTTP chunk download.
type FetchResult struct {
	Bytes          int64
	Duration       time.Duration
	ThroughputMbps float64
}

// FetchChunk downloads one chunk from a chunk server and measures the
// transfer.
func FetchChunk(client *http.Client, baseURL string, index, level int) (FetchResult, error) {
	if client == nil {
		client = http.DefaultClient
	}
	u := fmt.Sprintf("%s/chunk?index=%s&level=%s", baseURL,
		url.QueryEscape(strconv.Itoa(index)), url.QueryEscape(strconv.Itoa(level)))
	start := time.Now()
	resp, err := client.Get(u)
	if err != nil {
		return FetchResult{}, fmt.Errorf("netem: fetch chunk %d/%d: %w", index, level, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return FetchResult{}, fmt.Errorf("netem: fetch chunk %d/%d: status %s", index, level, resp.Status)
	}
	n, err := io.Copy(io.Discard, resp.Body)
	if err != nil {
		return FetchResult{}, fmt.Errorf("netem: read chunk %d/%d: %w", index, level, err)
	}
	dur := time.Since(start)
	mbps := 0.0
	if dur > 0 {
		mbps = float64(n) * 8 / 1e6 / dur.Seconds()
	}
	return FetchResult{Bytes: n, Duration: dur, ThroughputMbps: mbps}, nil
}
