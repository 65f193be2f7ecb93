package serve

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"osap/internal/serve/proto"
)

// binClient is a minimal binary-protocol client for tests: dial,
// handshake, then typed frame exchanges on explicit channel ids.
type binClient struct {
	t  *testing.T
	nc net.Conn
	pc *proto.Conn
	w  proto.Welcome
}

func dialBinary(t *testing.T, addr string) *binClient {
	t.Helper()
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	return handshake(t, nc)
}

// pipeBinary serves one end of an in-memory pipe with serveConn and
// returns a client on the other. net.Pipe has no buffer of its own, so
// one Write here is one Read there and every server flush is one Write.
func pipeBinary(t *testing.T, s *Server) *binClient {
	t.Helper()
	srv, cli := net.Pipe()
	done := make(chan struct{})
	go func() {
		defer close(done)
		s.serveConn(srv)
	}()
	t.Cleanup(func() {
		cli.Close() //nolint:errcheck
		<-done
	})
	return handshake(t, cli)
}

func handshake(t *testing.T, nc net.Conn) *binClient {
	t.Helper()
	c := &binClient{t: t, nc: nc, pc: proto.NewConn(nc)}
	if err := c.pc.WriteHello(); err != nil {
		t.Fatal(err)
	}
	typ, payload, err := c.pc.ReadFrame()
	if err != nil {
		t.Fatal(err)
	}
	if typ == proto.TypeGoAway {
		t.Fatalf("handshake refused: %s", payload)
	}
	if typ != proto.TypeWelcome {
		t.Fatalf("handshake: frame type %d, want Welcome", typ)
	}
	if c.w, err = proto.DecodeWelcome(payload); err != nil {
		t.Fatal(err)
	}
	return c
}

func (c *binClient) open(cid uint32, scheme string) string {
	c.t.Helper()
	if err := c.pc.WriteOpen(cid, scheme); err != nil {
		c.t.Fatal(err)
	}
	typ, payload, err := c.pc.ReadFrame()
	if err != nil {
		c.t.Fatal(err)
	}
	if typ != proto.TypeOpened {
		_, code, msg, _ := proto.DecodeError(payload)
		c.t.Fatalf("open %s: frame type %d (%s)", scheme, typ, proto.ErrorString(code, msg))
	}
	got, id, err := proto.DecodeOpened(payload)
	if err != nil {
		c.t.Fatal(err)
	}
	if got != cid {
		c.t.Fatalf("open %s: reply addressed to cid %d, want %d", scheme, got, cid)
	}
	return id
}

// openErr sends an Open expected to fail and returns the error frame.
func (c *binClient) openErr(cid uint32, scheme string) (uint16, string) {
	c.t.Helper()
	if err := c.pc.WriteOpen(cid, scheme); err != nil {
		c.t.Fatal(err)
	}
	typ, payload, err := c.pc.ReadFrame()
	if err != nil {
		c.t.Fatal(err)
	}
	if typ != proto.TypeError {
		c.t.Fatalf("open: frame type %d, want Error", typ)
	}
	_, code, msg, err := proto.DecodeError(payload)
	if err != nil {
		c.t.Fatal(err)
	}
	return code, msg
}

func (c *binClient) step(cid, seq uint32, obs []float64) (proto.Decision, error) {
	if err := c.pc.WriteStep(cid, seq, obs); err != nil {
		return proto.Decision{}, err
	}
	typ, payload, err := c.pc.ReadFrame()
	if err != nil {
		return proto.Decision{}, err
	}
	if typ != proto.TypeDecision {
		_, code, msg, _ := proto.DecodeError(payload)
		return proto.Decision{}, &binError{typ: typ, code: code, msg: msg}
	}
	d, err := proto.DecodeDecision(payload)
	if err == nil && d.Cid != cid {
		c.t.Fatalf("decision addressed to cid %d, want %d", d.Cid, cid)
	}
	return d, err
}

type binError struct {
	typ  proto.Type
	code uint16
	msg  string
}

func (e *binError) Error() string { return proto.ErrorString(e.code, e.msg) }

// sessionControl sends a cid-scoped Reset/Close and expects an OK
// addressed to the same channel.
func (c *binClient) sessionControl(t proto.Type, cid uint32) {
	c.t.Helper()
	if err := c.pc.WriteSessionControl(t, cid); err != nil {
		c.t.Fatal(err)
	}
	typ, payload, err := c.pc.ReadFrame()
	if err != nil {
		c.t.Fatal(err)
	}
	if typ != proto.TypeOK {
		_, code, msg, _ := proto.DecodeError(payload)
		c.t.Fatalf("control %d: response type %d (%s), want OK", t, typ, proto.ErrorString(code, msg))
	}
	if got, err := proto.DecodeCid(payload); err != nil || got != cid {
		c.t.Fatalf("control %d: OK addressed to cid %d (%v), want %d", t, got, err, cid)
	}
}

func (c *binClient) ping() {
	c.t.Helper()
	if err := c.pc.WriteControl(proto.TypePing, nil); err != nil {
		c.t.Fatal(err)
	}
	typ, _, err := c.pc.ReadFrame()
	if err != nil || typ != proto.TypePong {
		c.t.Fatalf("ping: response type %d err %v, want Pong", typ, err)
	}
}

// writeSteps sends one Step frame per (cid, seq, obs) triple in a
// single Write on the transport.
func (c *binClient) writeSteps(cids, seqs []uint32, obs [][]float64) {
	c.t.Helper()
	var buf bytes.Buffer
	enc := proto.NewConn(&buf)
	for i, cid := range cids {
		if err := enc.WriteStep(cid, seqs[i], obs[i]); err != nil {
			c.t.Fatal(err)
		}
	}
	if _, err := c.nc.Write(buf.Bytes()); err != nil {
		c.t.Fatal(err)
	}
}

// readDecision reads one frame that must be a Decision. It reports
// failures with Error so that client goroutines may call it.
func (c *binClient) readDecision() (proto.Decision, bool) {
	typ, payload, err := c.pc.ReadFrame()
	if err != nil {
		c.t.Error(err)
		return proto.Decision{}, false
	}
	if typ != proto.TypeDecision {
		_, code, msg, _ := proto.DecodeError(payload)
		c.t.Errorf("frame type %d (%s), want Decision", typ, proto.ErrorString(code, msg))
		return proto.Decision{}, false
	}
	d, err := proto.DecodeDecision(payload)
	if err != nil {
		c.t.Error(err)
	}
	return d, err == nil
}

// checkAgainstSequential replays stream on a private guard stepped
// alone and requires got to match it decision for decision, bit for
// bit.
func checkAgainstSequential(t *testing.T, s *Server, scheme string, stream [][]float64, got []proto.Decision) {
	t.Helper()
	if len(got) != len(stream) {
		t.Fatalf("%s: lane finished %d/%d steps", scheme, len(got), len(stream))
	}
	g, err := s.factory.NewGuard(scheme)
	if err != nil {
		t.Fatal(err)
	}
	ref := newSession("ref", scheme, g, time.Now())
	for i, obs := range stream {
		want, err := ref.Step(obs, time.Now())
		if err != nil {
			t.Fatal(err)
		}
		got := got[i]
		if int(got.Action) != want.Action {
			t.Fatalf("%s step %d: action %d != %d", scheme, i, got.Action, want.Action)
		}
		if math.Float64bits(got.Score) != math.Float64bits(want.Decision.Score) {
			t.Fatalf("%s step %d: score %g != %g (not bit-identical)", scheme, i, got.Score, want.Decision.Score)
		}
		if got.Flags&proto.FlagFallback != 0 != want.Decision.UsedDefault ||
			got.Flags&proto.FlagFired != 0 != want.Decision.Fired ||
			got.Flags&proto.FlagDemoted != 0 != want.Demoted() ||
			int(got.Step) != want.Decision.Step {
			t.Fatalf("%s step %d: flags/step %+v != %+v", scheme, i, got, want)
		}
	}
}

// promCounter reads one sample the way an operator would: off the
// /metrics text the server renders.
func promCounter(t *testing.T, s *Server, name string) uint64 {
	t.Helper()
	var buf bytes.Buffer
	if err := s.writeProm(&buf); err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(buf.String(), "\n") {
		var v uint64
		if n, _ := fmt.Sscanf(line, name+" %d", &v); n == 1 {
			return v
		}
	}
	t.Fatalf("no %s in the metrics text", name)
	return 0
}

func binaryTestServer(t *testing.T) (*Server, string) {
	t.Helper()
	s := batchTestServer(t)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go s.ServeBinary(ln) //nolint:errcheck // returns on listener close
	return s, ln.Addr().String()
}

// TestBinaryEndToEnd multiplexes sessions across all three schemes on
// ONE connection, pipelines every lane's step per round, and checks
// every decision is bit-identical to a sequential reference replay —
// the same equivalence property as the HTTP path, over the multiplexed
// wire format.
func TestBinaryEndToEnd(t *testing.T) {
	s, addr := binaryTestServer(t)
	defer s.Drain(context.Background(), io.Discard) //nolint:errcheck

	schemes := s.factory.Schemes()
	const perScheme, steps = 2, 40
	dim := s.factory.ObsDim()

	type lane struct {
		scheme string
		stream [][]float64
		got    []proto.Decision
	}
	var lanes []*lane
	for si, scheme := range schemes {
		for k := 0; k < perScheme; k++ {
			lanes = append(lanes, &lane{
				scheme: scheme,
				stream: obsStream(uint64(40+si*10+k), dim, steps),
			})
		}
	}

	c := dialBinary(t, addr)
	defer c.nc.Close()
	if c.w.ObsDim != dim || c.w.NumActions != s.factory.NumActions() {
		t.Fatalf("welcome dims %d/%d, want %d/%d", c.w.ObsDim, c.w.NumActions, dim, s.factory.NumActions())
	}
	for ci, ln := range lanes {
		c.open(uint32(ci), ln.scheme)
	}
	if got := s.Sessions(); got != len(lanes) {
		t.Fatalf("%d sessions open, want %d", got, len(lanes))
	}

	// Pipeline one step per lane, then collect the round's decisions.
	for i := 0; i < steps; i++ {
		for ci, ln := range lanes {
			if err := c.pc.WriteStep(uint32(ci), uint32(i), ln.stream[i]); err != nil {
				t.Fatal(err)
			}
		}
		for range lanes {
			d, ok := c.readDecision()
			if !ok {
				t.FailNow()
			}
			if int(d.Cid) >= len(lanes) || d.Seq != uint32(i) {
				t.Fatalf("round %d: decision cid %d seq %d", i, d.Cid, d.Seq)
			}
			lanes[d.Cid].got = append(lanes[d.Cid].got, d)
		}
	}
	if s.metrics.BatchSize.Count() == 0 {
		t.Fatal("no batches flushed over the binary transport")
	}
	for _, ln := range lanes {
		checkAgainstSequential(t, s, ln.scheme, ln.stream, ln.got)
	}
}

// TestBinarySessionLifecycle exercises the control frames on one
// multiplexed connection: ping, reset, explicit close (which deletes
// the session server-side but keeps the connection usable), channel
// reuse, and the cid-scoped error cases.
func TestBinarySessionLifecycle(t *testing.T) {
	s, addr := binaryTestServer(t)
	defer s.Drain(context.Background(), io.Discard) //nolint:errcheck

	c := dialBinary(t, addr)
	defer c.nc.Close()
	c.ping()

	// Step before open is a recoverable error, not a dead connection.
	obs := obsStream(3, s.factory.ObsDim(), 1)[0]
	if _, err := c.step(0, 0, obs); err == nil {
		t.Fatal("step before open succeeded")
	}

	// The reserved connection-scoped cid cannot carry a session.
	if code, _ := c.openErr(proto.CidConn, SchemeND); code != proto.CodeBadRequest {
		t.Fatalf("reserved cid open: code %d, want 400", code)
	}

	c.open(0, SchemeND)
	if s.Sessions() != 1 {
		t.Fatalf("%d sessions after open, want 1", s.Sessions())
	}

	// A second Open on a live channel is rejected without killing it.
	if code, msg := c.openErr(0, SchemeND); code != proto.CodeBadRequest || !strings.Contains(msg, "already open") {
		t.Fatalf("duplicate cid open: code %d %q", code, msg)
	}

	for i := uint32(1); i <= 2; i++ {
		d, err := c.step(0, i, obs)
		if err != nil {
			t.Fatal(err)
		}
		if d.Step != i-1 {
			t.Fatalf("step counter = %d, want %d", d.Step, i-1)
		}
	}
	c.sessionControl(proto.TypeReset, 0)
	d, err := c.step(0, 3, obs)
	if err != nil {
		t.Fatal(err)
	}
	if d.Step != 0 {
		t.Fatalf("step counter after reset = %d, want 0", d.Step)
	}
	c.sessionControl(proto.TypeClose, 0)
	deadline := time.Now().Add(2 * time.Second)
	for s.Sessions() != 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if s.Sessions() != 0 {
		t.Fatalf("%d sessions after close, want 0", s.Sessions())
	}
	if s.metrics.SessionsDeleted.Load() != 1 {
		t.Fatalf("deleted counter %d, want 1", s.metrics.SessionsDeleted.Load())
	}

	// Close freed the channel id and kept the connection: reuse both.
	c.open(0, SchemeAEns)
	if d, err := c.step(0, 1, obs); err != nil || d.Step != 0 {
		t.Fatalf("step on reused channel: %+v %v", d, err)
	}
	if s.Sessions() != 1 {
		t.Fatalf("%d sessions after channel reuse, want 1", s.Sessions())
	}
}

// TestBinaryPipelineInOrder pins the ordering contract: steps
// pipelined on one cid — two frames in one Write — are both served, in
// the order they arrived, as consecutive steps of the session.
func TestBinaryPipelineInOrder(t *testing.T) {
	s, addr := binaryTestServer(t)
	defer s.Drain(context.Background(), io.Discard) //nolint:errcheck

	c := dialBinary(t, addr)
	defer c.nc.Close()
	c.open(0, SchemeAEns)
	stream := obsStream(9, s.factory.ObsDim(), 2)
	c.writeSteps([]uint32{0, 0}, []uint32{1, 2}, stream)
	var got []proto.Decision
	for i := uint32(0); i < 2; i++ {
		d, ok := c.readDecision()
		if !ok {
			t.FailNow()
		}
		if d.Cid != 0 || d.Seq != i+1 || d.Step != i {
			t.Fatalf("reply %d: cid %d seq %d step %d, want cid 0 seq %d step %d", i, d.Cid, d.Seq, d.Step, i+1, i)
		}
		got = append(got, d)
	}
	checkAgainstSequential(t, s, SchemeAEns, stream, got)
}

// TestBinaryBurstOneFlush: eight Step frames for eight sessions arriving
// in one read are answered by eight Decisions in one write — asserted
// through the counters on /metrics.
func TestBinaryBurstOneFlush(t *testing.T) {
	s := batchTestServer(t)
	defer s.Drain(context.Background(), io.Discard) //nolint:errcheck
	c := pipeBinary(t, s)
	const n = 8
	schemes := s.factory.Schemes()
	cids, seqs := make([]uint32, n), make([]uint32, n)
	for i := range cids {
		cids[i], seqs[i] = uint32(i), 7
		c.open(cids[i], schemes[i%len(schemes)])
	}
	counts := func() [3]uint64 {
		return [3]uint64{
			promCounter(t, s, "osap_binary_frames_total"),
			promCounter(t, s, "osap_binary_read_bursts_total"),
			promCounter(t, s, "osap_binary_flushes_total"),
		}
	}
	before := counts()
	c.writeSteps(cids, seqs, obsStream(21, s.factory.ObsDim(), n))
	for i := uint32(0); i < n; i++ {
		d, ok := c.readDecision()
		if !ok {
			t.FailNow()
		}
		if d.Cid != i || d.Seq != 7 {
			t.Fatalf("reply %d: cid %d seq %d", i, d.Cid, d.Seq)
		}
	}
	after := counts()
	if got := [3]uint64{after[0] - before[0], after[1] - before[1], after[2] - before[2]}; got != [3]uint64{n, 1, 1} {
		t.Fatalf("frames, bursts, flushes = %v; want [%d 1 1]", got, n)
	}
}

// TestBinaryStepZeroAlloc is the allocation gate for the whole binary
// step path — read, decode, step, encode, flush — and the client half
// of the round trip with it: a steady step of an ND session and of an
// A-ensemble one allocates nothing.
func TestBinaryStepZeroAlloc(t *testing.T) {
	s := batchTestServer(t)
	defer s.Drain(context.Background(), io.Discard) //nolint:errcheck
	c := pipeBinary(t, s)
	obs := obsStream(9, s.factory.ObsDim(), 1)[0]
	for cid, scheme := range []string{SchemeND, SchemeAEns} {
		c.open(uint32(cid), scheme)
		seq := uint32(0)
		step := func() {
			seq++
			if _, err := c.step(uint32(cid), seq, obs); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 50; i++ { // warm scratch, pool and histograms
			step()
		}
		if allocs := testing.AllocsPerRun(200, step); allocs != 0 {
			t.Errorf("%s: binary step round trip allocates %.2f/op, want 0", scheme, allocs)
		}
	}
}

// TestBinarySessionsCostNoGoroutines: a connection is one goroutine
// however many sessions it carries.
func TestBinarySessionsCostNoGoroutines(t *testing.T) {
	s := batchTestServer(t)
	defer s.Drain(context.Background(), io.Discard) //nolint:errcheck
	c := pipeBinary(t, s)
	schemes := s.factory.Schemes()
	before := runtime.NumGoroutine()
	for cid := uint32(0); cid < 256; cid++ {
		c.open(cid, schemes[int(cid)%len(schemes)])
	}
	obs := obsStream(4, s.factory.ObsDim(), 1)[0]
	if _, err := c.step(255, 1, obs); err != nil {
		t.Fatal(err)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("%d goroutines with 256 sessions open, %d with none", after, before)
	}
}

// TestBinaryConnsShareShard pins the multi-core rule (DESIGN.md §7): a
// connection is served by one goroutine, parallelism comes from
// connections, and two connections whose ensemble sessions share a
// shard neither corrupt nor starve each other — a step that finds the shard
// taken waits on its mutex. Each connection opens a session per shard
// or more, so at least one shard carries sessions of both, whatever
// GOMAXPROCS is; both pipeline a step for each of their sessions per
// round. Every decision must equal the sequential reference, and the
// batch-size histogram must account for every decision exactly once.
func TestBinaryConnsShareShard(t *testing.T) {
	s, addr := binaryTestServer(t)
	defer s.Drain(context.Background(), io.Discard) //nolint:errcheck
	const conns, steps = 2, 60
	perConn := max(4, len(s.rollout.Active().shards))
	dim := s.factory.ObsDim()
	fused := []string{SchemeAEns, SchemeVEns}

	type lane struct {
		scheme string
		stream [][]float64
		got    []proto.Decision
	}
	lanes := make([][]*lane, conns)
	clients := make([]*binClient, conns)
	connsOnShard := map[*shard]map[int]bool{}
	for k := range clients {
		clients[k] = dialBinary(t, addr)
		defer clients[k].nc.Close()
		for ci := 0; ci < perConn; ci++ {
			ln := &lane{scheme: fused[ci%2], stream: obsStream(uint64(70+100*k+ci), dim, steps)}
			lanes[k] = append(lanes[k], ln)
			sess, ok := s.table.Get(clients[k].open(uint32(ci), ln.scheme))
			if !ok {
				t.Fatal("an opened session is not in the table")
			}
			if connsOnShard[sess.shard] == nil {
				connsOnShard[sess.shard] = map[int]bool{}
			}
			connsOnShard[sess.shard][k] = true
		}
	}
	shared := 0
	for _, ks := range connsOnShard {
		if len(ks) == conns {
			shared++
		}
	}
	if shared == 0 {
		t.Fatalf("no shard carries sessions of both connections: %v", connsOnShard)
	}
	var wg sync.WaitGroup
	for k, c := range clients {
		wg.Add(1)
		go func(c *binClient, lanes []*lane) {
			defer wg.Done()
			for i := 0; i < steps; i++ {
				for ci, ln := range lanes {
					if err := c.pc.WriteStep(uint32(ci), uint32(i), ln.stream[i]); err != nil {
						t.Error(err)
						return
					}
				}
				for ci, ln := range lanes {
					d, ok := c.readDecision()
					if !ok {
						return
					}
					if d.Cid != uint32(ci) || d.Seq != uint32(i) {
						t.Errorf("round %d: decision cid %d seq %d, want cid %d", i, d.Cid, d.Seq, ci)
						return
					}
					ln.got = append(ln.got, d)
				}
			}
		}(c, lanes[k])
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	for k := range lanes {
		for _, ln := range lanes[k] {
			checkAgainstSequential(t, s, ln.scheme, ln.stream, ln.got)
		}
	}
	decisions, sizes := s.metrics.Decisions.Load(), s.metrics.BatchSize
	if want := uint64(conns * perConn * steps); decisions != want || sizes.Count() != want || sizes.Sum() != float64(want) {
		t.Fatalf("%d decisions, %d batches of %g rows; want %d of each", decisions, sizes.Count(), sizes.Sum(), want)
	}
}

// TestBinaryDrainGoAway checks graceful shutdown over the binary
// transport: an in-flight connection is told to go away (or closed)
// rather than left hanging, and new connections are refused.
func TestBinaryDrainGoAway(t *testing.T) {
	s, addr := binaryTestServer(t)
	c := dialBinary(t, addr)
	defer c.nc.Close()
	c.open(0, SchemeAEns)
	obs := obsStream(5, s.factory.ObsDim(), 1)[0]
	if _, err := c.step(0, 0, obs); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Drain(ctx, io.Discard); err != nil {
		t.Fatalf("drain: %v", err)
	}

	// The existing connection: a post-drain step gets GoAway or, if the
	// force-close won the race, a transport error. Never a decision.
	if err := c.pc.WriteStep(0, 1, obs); err == nil {
		typ, _, err := c.pc.ReadFrame()
		if err == nil && typ != proto.TypeGoAway {
			t.Fatalf("post-drain step answered with frame type %d", typ)
		}
	}

	// A new connection is refused at the handshake.
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		return // listener may already reject; also a valid drain outcome
	}
	defer nc.Close()
	pc := proto.NewConn(nc)
	if err := pc.WriteHello(); err != nil {
		return
	}
	if typ, _, err := pc.ReadFrame(); err == nil && typ != proto.TypeGoAway {
		t.Fatalf("post-drain handshake answered with frame type %d, want GoAway", typ)
	}
	if s.Sessions() != 0 {
		t.Fatalf("%d sessions survived drain", s.Sessions())
	}
}

// TestCloseRacingBinaryStep deletes a session over HTTP while another
// connection, the binary one, keeps stepping it. Every step is answered
// with a Decision or CodeGone — none is dropped — once one step is Gone
// every later one is, and osap_decisions_total counts exactly the
// Decisions the client received.
func TestCloseRacingBinaryStep(t *testing.T) {
	s, addr := binaryTestServer(t)
	defer s.Drain(context.Background(), io.Discard) //nolint:errcheck
	c := dialBinary(t, addr)
	defer c.nc.Close()
	id := c.open(0, s.factory.Schemes()[0])
	stream := obsStream(61, s.factory.ObsDim(), 16)

	deleted := make(chan int, 1)
	const batch = 16
	cids, seqs := make([]uint32, batch), make([]uint32, batch)
	var decisions, gone uint64
	for round := 0; gone == 0; round++ {
		if round == 10_000 {
			t.Fatal("the session was never closed under the steps")
		}
		for i := range seqs {
			seqs[i] = uint32(round*batch + i)
		}
		c.writeSteps(cids, seqs, stream)
		if round == 0 {
			go func() {
				rec := httptest.NewRecorder()
				s.ServeHTTP(rec, httptest.NewRequest(http.MethodDelete, "/v1/sessions/"+id, nil))
				deleted <- rec.Code
			}()
		}
		for i := 0; i < batch; i++ {
			typ, payload, err := c.pc.ReadFrame()
			if err != nil {
				t.Fatalf("round %d step %d: %v (a step was dropped)", round, i, err)
			}
			switch typ {
			case proto.TypeDecision:
				d, err := proto.DecodeDecision(payload)
				if err != nil {
					t.Fatal(err)
				}
				if gone > 0 {
					t.Fatalf("round %d step %d: a Decision after the session was gone", round, i)
				}
				if d.Seq != seqs[i] {
					t.Fatalf("round %d: decision seq %d, want %d", round, d.Seq, seqs[i])
				}
				decisions++
			case proto.TypeError:
				_, code, msg, _ := proto.DecodeError(payload)
				if code != proto.CodeGone {
					t.Fatalf("round %d step %d: %s, want a Decision or CodeGone", round, i, proto.ErrorString(code, msg))
				}
				gone++
			default:
				t.Fatalf("round %d step %d: frame type %d, want Decision or Error", round, i, typ)
			}
		}
	}
	if code := <-deleted; code != http.StatusNoContent {
		t.Fatalf("DELETE answered %d, want 204", code)
	}
	if got := promCounter(t, s, "osap_decisions_total"); got != decisions {
		t.Fatalf("osap_decisions_total = %d, client received %d Decisions (%d Gone)", got, decisions, gone)
	}
}
