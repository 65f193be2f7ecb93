package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"osap/internal/abr"
)

// BenchmarkStepHandler measures one guarded decision through the full
// HTTP handler stack (mux, JSON decode, guard, JSON encode) without
// socket overhead — the per-request cost floor of osap-serve.
func BenchmarkStepHandler(b *testing.B) {
	for _, scheme := range []string{SchemeND, SchemeAEns, SchemeVEns} {
		b.Run(scheme, func(b *testing.B) {
			arts, err := SyntheticArtifacts("bench", 5, 3)
			if err != nil {
				b.Fatal(err)
			}
			f, err := NewGuardFactory(arts, GuardConfig{})
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
			body, _ := json.Marshal(map[string][]float64{"obs": make([]float64, abr.ObsDim)})
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

// BenchmarkTableGet measures session lookup contention across shard
// counts under parallel load.
func BenchmarkTableGet(b *testing.B) {
	for _, shards := range []int{1, 64} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			tb := NewTable(shards, 0)
			const n = 1024
			ids := make([]string, n)
			for i := range ids {
				ids[i] = fmt.Sprintf("s-%d", i)
				if err := tb.Put(newSession(ids[i], SchemeND, nil, time.Now())); err != nil {
					b.Fatal(err)
				}
			}
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
		})
	}
}
