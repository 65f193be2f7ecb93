package serve

import (
	"bytes"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"osap/internal/abr"
)

// BenchmarkStepHandler measures one guarded decision through the full
// HTTP handler stack (mux, JSON decode, guard, JSON encode) without
// socket overhead — the per-request cost floor of osap-serve. The body
// is benchBody's, numbers of 16–17 digits as a client's encoder writes
// them: an all-zeros body would decode each number from one byte.
func BenchmarkStepHandler(b *testing.B) {
	for _, scheme := range []string{SchemeND, SchemeAEns, SchemeVEns} {
		b.Run(scheme, func(b *testing.B) {
			f, err := NewGuardFactory(sharedArtifacts(b), GuardConfig{})
			if err != nil {
				b.Fatal(err)
			}
			s, err := NewServer(f, Config{})
			if err != nil {
				b.Fatal(err)
			}
			sess, err := s.createSession(scheme)
			if err != nil {
				b.Fatal(err)
			}
			body := benchBody(b)
			url := "/v1/sessions/" + sess.ID() + "/step"
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				req := httptest.NewRequest(http.MethodPost, url, bytes.NewReader(body))
				w := httptest.NewRecorder()
				s.ServeHTTP(w, req)
				if w.Code != http.StatusOK {
					b.Fatalf("step: status %d: %s", w.Code, w.Body)
				}
			}
		})
	}
}

// BenchmarkStepDecode measures the step decoder alone on benchBody: an
// observation of abr.ObsDim numbers in the 16–17 significant digits of
// a shortest-form float encoder.
func BenchmarkStepDecode(b *testing.B) {
	body := benchBody(b)
	var d stepDecoder
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if d.decode(body) != statusOK || d.n != abr.ObsDim {
			b.Fatal("benchBody did not decode")
		}
	}
}

// BenchmarkOwnedHTTPStep measures one keep-alive step round trip on a
// connection the server owns, over loopback TCP: the client's write,
// the server's read, head parse, decode, guarded decision, encode and
// write, and the client's read of the reply. It is the owned fast path
// that BenchmarkStepHandler's recorder cannot reach; client and server
// share the machine's cores.
func BenchmarkOwnedHTTPStep(b *testing.B) {
	for _, scheme := range []string{SchemeND, SchemeAEns} {
		b.Run(scheme, func(b *testing.B) {
			s := batchTestServer(b)
			ts := httptest.NewServer(s)
			defer ts.Close()
			sess, err := s.createSession(scheme)
			if err != nil {
				b.Fatal(err)
			}
			nc, err := net.Dial("tcp", ts.Listener.Addr().String())
			if err != nil {
				b.Fatal(err)
			}
			defer nc.Close()
			req := rawStepRequest(sess.ID(), benchBody(b))
			buf := make([]byte, 4096)
			step := func() {
				if _, err := nc.Write(req); err != nil {
					b.Fatal(err)
				}
				for n := 0; ; {
					m, err := nc.Read(buf[n:])
					if err != nil {
						b.Fatal(err)
					}
					n += m
					if whole := replyLen(buf[:n]); whole > 0 && whole <= n {
						if !bytes.HasPrefix(buf, []byte("HTTP/1.1 200 ")) {
							b.Fatalf("reply %q", buf[:n])
						}
						return
					}
				}
			}
			step() // takes the connection over
			if s.metrics.HTTPTakeovers.Load() != 1 {
				b.Fatal("the first step did not take the connection over")
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				step()
			}
		})
	}
}

// benchTable builds a table holding n sessions and returns their IDs.
func benchTable(b *testing.B, n int) (*Table, []string) {
	tb := NewTable(0)
	ids := make([]string, n)
	for i := range ids {
		ids[i] = fmt.Sprintf("s-%d", i)
		if err := tb.Put(newSession(ids[i], SchemeND, nil, time.Now())); err != nil {
			b.Fatal(err)
		}
	}
	return tb, ids
}

// BenchmarkTableGet measures session lookup, the table's part of an
// HTTP step, under parallel load on a table of 1024 sessions.
func BenchmarkTableGet(b *testing.B) {
	const n = 1024
	tb, ids := benchTable(b, n)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			if _, ok := tb.Get(ids[i&(n-1)]); !ok {
				b.Fail()
			}
			i++
		}
	})
}

// BenchmarkTablePutDelete measures open/close traffic on the table: one
// Put and one Delete, two holds of the write lock, per iteration, under
// parallel load on a table of 1024 sessions. Each goroutine cycles 64
// sessions of its own.
func BenchmarkTablePutDelete(b *testing.B) {
	tb, _ := benchTable(b, 1024)
	var worker atomic.Int64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		w := worker.Add(1)
		var ring [64]*Session
		for i := range ring {
			ring[i] = newSession(fmt.Sprintf("w%d-%d", w, i), SchemeND, nil, time.Now())
		}
		i := 0
		for pb.Next() {
			s := ring[i&(len(ring)-1)]
			if err := tb.Put(s); err != nil {
				b.Error(err)
				return
			}
			tb.Delete(s.id)
			i++
		}
	})
}
