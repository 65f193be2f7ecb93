package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"time"
)

// httpSession is one player on its own keep-alive HTTP/1.1 connection:
// it waits for each decision before sending the next observation. The
// requests are written by hand and the responses parsed with
// net/http; like the binary mux the socket is polled, never parked
// on, so the client adds little of its own to the round trip.
type httpSession struct {
	nc     net.Conn
	rd     *spinReader
	br     *bufio.Reader
	host   string
	id     string
	scheme int
	tape   int
	pos    int
	bodies [][]byte // JSON step bodies, one per tape step
	req    bytes.Buffer

	// The exchange in flight, if any.
	waiting   bool
	resetting bool
	traced    bool
	sentAt    int64 // request about to be written
	wroteAt   int64 // request written
	recvAt    int64 // response read and decoded
	nextAt    int64 // earliest time of the next request: the reply checked plus the think time
}

// stepReply is the subset of the server's step response the oracle
// checks.
type stepReply struct {
	Action   int     `json:"action"`
	Score    float64 `json:"score"`
	Fallback bool    `json:"fallback"`
	Fired    bool    `json:"fired"`
	Step     uint32  `json:"step"`
	Demoted  bool    `json:"demoted"`
}

// dialHTTP connects, creates a session of the given scheme and
// prepares the tape's request bodies. The returned sample is the
// create round trip.
func dialHTTP(addr string, scheme string, tapeIdx int, tp tape) (*httpSession, sample, error) {
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, sample{}, err
	}
	rc, err := nc.(*net.TCPConn).SyscallConn()
	if err != nil {
		nc.Close() //nolint:errcheck // dial failed
		return nil, sample{}, err
	}
	h := &httpSession{nc: nc, rd: newSpinReader(rc), host: addr, scheme: schemeIndex(scheme), tape: tapeIdx}
	h.br = bufio.NewReader(h.rd)
	for _, obs := range tp.obs {
		// encoding/json prints the shortest decimal that parses back to
		// the same float64, so the server sees the tape bit for bit.
		b, err := json.Marshal(map[string][]float64{"obs": obs})
		if err != nil {
			return nil, sample{}, err
		}
		h.bodies = append(h.bodies, b)
	}
	t0 := now()
	var created struct {
		ID string `json:"id"`
	}
	body, err := json.Marshal(map[string]string{"scheme": scheme})
	if err != nil {
		return nil, sample{}, err
	}
	if err := h.do("POST", "/v1/sessions", body, http.StatusCreated, &created); err != nil {
		return nil, sample{}, fmt.Errorf("create session: %w", err)
	}
	h.id = created.ID
	return h, sample{due: t0, lat: now() - t0}, nil
}

// send writes one request.
func (h *httpSession) send(method, path string, body []byte) error {
	h.req.Reset()
	h.req.WriteString(method)
	h.req.WriteString(" ")
	h.req.WriteString(path)
	h.req.WriteString(" HTTP/1.1\r\nHost: ")
	h.req.WriteString(h.host)
	h.req.WriteString("\r\nContent-Type: application/json\r\nContent-Length: ")
	h.req.WriteString(strconv.Itoa(len(body)))
	h.req.WriteString("\r\n\r\n")
	h.req.Write(body)
	h.sentAt = now()
	_, err := h.nc.Write(h.req.Bytes())
	h.wroteAt = now()
	return err
}

// ready reports whether (the start of) a response has arrived.
func (h *httpSession) ready() bool { return h.br.Buffered() > 0 || h.rd.poll() }

// recv reads one response, spinning for whatever part of it is still
// on its way, and decodes its JSON body into into (if not nil).
func (h *httpSession) recv(want int, into any) error {
	resp, err := http.ReadResponse(h.br, nil)
	if err != nil {
		return err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close() //nolint:errcheck // fully read
	if err != nil {
		return err
	}
	if resp.StatusCode != want {
		return fmt.Errorf("status %d, want %d: %s", resp.StatusCode, want, bytes.TrimSpace(data))
	}
	if into != nil {
		return json.Unmarshal(data, into)
	}
	return nil
}

// do performs one whole exchange.
func (h *httpSession) do(method, path string, body []byte, want int, into any) error {
	if err := h.send(method, path, body); err != nil {
		return err
	}
	if err := h.recv(want, into); err != nil {
		return fmt.Errorf("%s %s: %w", method, path, err)
	}
	return nil
}

// next sends the session's next request: the next tape step, or a
// reset first when the tape wrapped.
func (h *httpSession) next(cnt *counts, traced bool) error {
	cnt.attempted++
	h.waiting, h.traced = true, traced
	if h.resetting = h.pos == len(h.bodies); h.resetting {
		h.pos = 0
		return h.send("POST", "/v1/sessions/"+h.id+"/reset", nil)
	}
	return h.send("POST", "/v1/sessions/"+h.id+"/step", h.bodies[h.pos])
}

// finish reads the reply to what next sent and, for a step, checks
// the decision against the reference. It returns the step's sample
// and whether there is one.
func (h *httpSession) finish(orc *oracle, cnt *counts) (sample, bool, error) {
	h.waiting = false
	if h.resetting {
		return sample{}, false, h.recv(http.StatusNoContent, nil)
	}
	var r stepReply
	if err := h.recv(http.StatusOK, &r); err != nil {
		return sample{}, false, err
	}
	h.recvAt = now()
	ref := orc.ref[h.scheme][h.tape][h.pos]
	ok := ref.check(r.Action, r.Fallback, r.Fired, r.Demoted, r.Step, r.Score)
	checked := now()
	h.pos++
	if !ok {
		cnt.bad(&cnt.mismatches, "http session (tape %d) step %d: served %+v, reference %+v", h.tape, h.pos-1, r, ref)
		return sample{}, false, nil
	}
	cnt.okSteps++
	return sample{due: h.sentAt, lat: checked - h.sentAt}, true, nil
}

// step performs one blocking step exchange (resetting first at a tape
// wrap); the lone transport probe uses it.
func (h *httpSession) step(orc *oracle, cnt *counts) (sample, error) {
	for {
		if err := h.next(cnt, false); err != nil {
			return sample{}, err
		}
		smp, ok, err := h.finish(orc, cnt)
		if err != nil || ok {
			return smp, err
		}
		if !h.resetting {
			return sample{}, fmt.Errorf("http step: %s", cnt.firstBad)
		}
	}
}

// remove deletes the session on the server.
func (h *httpSession) remove() error {
	return h.do("DELETE", "/v1/sessions/"+h.id, nil, http.StatusNoContent, nil)
}

func (h *httpSession) close() { h.nc.Close() } //nolint:errcheck // done with the connection

// runLone drives every HTTP session in a closed loop for dur from one
// polling goroutine: each session sends its next request think after
// its previous reply is checked, as a player fetches a chunk between
// two decisions. Steps sent traceFrom into the phase or later are
// traced (never, if negative).
func runLone(name string, sessions []*httpSession, orc *oracle, cnt *counts, tr *tracer, dur, traceFrom, think time.Duration) (*phaseStats, error) {
	ps := newPhaseStats(name, 0, dur)
	ps.steps = make([]sample, 0, 1<<18)
	stop := ps.start + int64(dur)
	traceAt := stop + int64(drainGrace)
	if traceFrom >= 0 {
		traceAt = ps.start + int64(traceFrom)
		ps.traced = make([]sample, 0, 1<<18)
	}
	clk := stallClock{last: now(), worked: true}
	for {
		t := clk.tick(ps)
		busy := 0
		for _, h := range sessions {
			switch {
			case !h.waiting && t < stop && t >= h.nextAt:
				if err := h.next(cnt, t >= traceAt); err != nil {
					return ps, fmt.Errorf("%s: %w", name, err)
				}
				clk.worked = true
			case h.waiting && h.ready():
				smp, ok, err := h.finish(orc, cnt)
				if err != nil {
					cnt.bad(&cnt.errors, "%s: %v", name, err)
					return ps, fmt.Errorf("%s: %w", name, err)
				}
				clk.worked = true
				h.nextAt = now() + int64(think)
				if !ok {
					break
				}
				ps.answered(smp.due + smp.lat)
				switch {
				case clk.lastStall > smp.due:
					ps.tainted++
				case h.traced:
					ps.traced = append(ps.traced, smp)
					tr.step(smp.due, smp.due, h.wroteAt, h.recvAt, smp.due+smp.lat)
				default:
					ps.steps = append(ps.steps, smp)
				}
			}
			if h.waiting {
				busy++
			}
		}
		if busy == 0 && t >= stop {
			return ps, nil
		}
		if t > stop+int64(drainGrace) {
			cnt.bad(&cnt.unanswered, "%s: %d requests unanswered %v after the phase ended", name, busy, drainGrace)
			return ps, fmt.Errorf("%s: server stopped answering", name)
		}
	}
}
