// Command osap-serve is the multi-session online guard server: it
// loads one training run's artifacts (agent ensemble, value ensemble,
// OC-SVM, calibrated thresholds) and serves the paper's per-step
// safety decision to thousands of concurrent client sessions — over
// HTTP/JSON and over the persistent binary step protocol
// (internal/serve/proto), with every session's forwards run on the
// scratch of one of a few shared inference shards.
//
// It serves trained artifacts only, from a model directory or a
// versioned registry that osap-train wrote; one of -models and
// -registry is required:
//
//	osap-train -scale paper -dataset norway -out ./models
//	osap-serve -models ./models -dataset norway -addr :8080 -binary-addr :8081
//
// API (JSON): POST /v1/sessions {"scheme":"ND"|"A-ensemble"|"V-ensemble"},
// POST /v1/sessions/{id}/step {"obs":[...]}, POST /v1/sessions/{id}/reset,
// DELETE /v1/sessions/{id}, GET /healthz, GET /metrics (Prometheus text).
// The binary listener speaks the framed protocol documented in
// internal/serve/proto (and DESIGN.md §10): a Hello/Welcome handshake,
// then Open/Step/Decision frames of any number of sessions on one
// connection, each session told apart by its channel id.
//
// SIGINT/SIGTERM triggers graceful drain: admissions stop (503 /
// GoAway), in-flight steps finish, binary connections are told to go
// away, sessions close, and a final metrics snapshot is written to
// stderr before exit.
//
// Every flag configures serving. The load, fault-injection, canary and
// online-learning selftests are this package's tests (`go test
// ./cmd/osap-serve`, small scale; `make chaos`, `make rollout-selftest`
// and `make learn-selftest` run them at full scale).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"osap/internal/buildinfo"
	"osap/internal/experiments"
	"osap/internal/learn"
	"osap/internal/registry"
	"osap/internal/serve"
	"osap/internal/trace"
)

// options is the command line.
type options struct {
	addr, binAddr   string
	models          string
	registry        string
	dataset         string
	learnLog        string
	learnRefitEvery int
	// probation is -readmit-l / -readmit-cap: both layers of the
	// recovery state machine, the session's probation and the trigger's
	// hysteresis. Both default to 0 — demotions and latched triggers
	// are permanent, the paper's behavior.
	probation experiments.Probation
	cfg       serve.Config
	version   bool
}

// newOptions registers the flags on fs.
func newOptions(fs *flag.FlagSet) *options {
	o := &options{}
	fs.StringVar(&o.addr, "addr", ":8080", "HTTP listen address")
	fs.StringVar(&o.binAddr, "binary-addr", "", "binary-protocol listen address (empty = HTTP only)")
	fs.StringVar(&o.models, "models", "", "directory of pre-trained artifacts (osap-train -out output); this or -registry is required")
	fs.StringVar(&o.registry, "registry", "", "versioned artifact registry root (osap-train -registry output); overrides -models")
	fs.Float64Var(&o.cfg.Rollout.RollbackMargin, "rollback-margin", 0, "excess candidate demotion/fallback rate that triggers auto-rollback (0 = default 0.05)")
	fs.StringVar(&o.dataset, "dataset", trace.DatasetNorway, "training distribution to serve")
	fs.IntVar(&o.cfg.MaxSessions, "max-sessions", 10000, "admission-control cap on live sessions (0 = unlimited)")
	fs.DurationVar(&o.cfg.SessionTTL, "session-ttl", 5*time.Minute, "evict sessions idle longer than this")
	fs.StringVar(&o.learnLog, "learn-log", "", "experience-log directory; non-empty enables gated online learning")
	fs.IntVar(&o.learnRefitEvery, "learn-refit-every", 0, "auto-refit after this many gate-admitted samples (0 = manual POST /admin/learn only)")
	fs.IntVar(&o.probation.ReadmitL, "readmit-l", 0,
		"probation hysteresis l′: re-admit a demoted session after this many consecutive confident shadow steps (0 = demotion latches for good, the paper's behavior)")
	fs.IntVar(&o.probation.ReadmitCap, "readmit-cap", 0,
		"re-admissions allowed per session episode before the latch becomes permanent (0 = never re-admit; negative = unlimited)")
	fs.BoolVar(&o.version, "version", false, "print version and exit")
	return o
}

func main() {
	o := newOptions(flag.CommandLine)
	flag.Parse()
	if o.version {
		buildinfo.Print(os.Stdout, "osap-serve")
		return
	}
	if err := runServer(o); err != nil {
		fmt.Fprintln(os.Stderr, "osap-serve:", err)
		os.Exit(1)
	}
}

// loadArtifacts reads dataset's artifact set from a model directory
// written by osap-train.
func loadArtifacts(dataset, models string) (*experiments.Artifacts, error) {
	return experiments.LoadArtifacts(filepath.Join(models, dataset+".json"))
}

// warnBoundThresholds writes one line to w for each α of arts whose
// record names a bound of core.Calibrate's search: ND's QoE target lay
// out of the search's reach, so α sits at an end of its range, where
// its guard may default on every step (lo) or on none (hi). The set is
// served all the same.
func warnBoundThresholds(w io.Writer, arts *experiments.Artifacts) {
	for _, th := range []struct {
		name  string
		alpha float64
		prov  experiments.Provenance
	}{
		{"alpha_pi", arts.AlphaPi, arts.Record.AlphaPi},
		{"alpha_v", arts.AlphaV, arts.Record.AlphaV},
	} {
		if th.prov.Bound != "" {
			fmt.Fprintf(w, "warning: %s %.6g (rule %s) sits at the %s bound of its search (evaluations: %d)\n",
				th.name, th.alpha, th.prov.Rule, th.prov.Bound, th.prov.Evals)
		}
	}
}

// bootFromRegistry opens the registry, loads the named version (or the
// newest promoted one when version is empty) and wires the
// version-aware serve.Config hooks (LoadVersion for staging,
// ListVersions and ListProposed for the dashboard) — the `-registry`
// path. It returns the loaded version's artifacts. The registry is read
// when asked — /dashboard lists its versions on every request, and POST
// /admin/rollout loads the one it stages — so nothing polls it.
func bootFromRegistry(cfg *serve.Config, root, dataset, version string) (*experiments.Artifacts, error) {
	reg, err := registry.Open(root)
	if err != nil {
		return nil, err
	}
	versions, err := reg.Versions()
	if err != nil {
		return nil, err
	}
	if len(versions) == 0 {
		return nil, fmt.Errorf("registry %s has no versions (publish one with osap-train -registry)", root)
	}
	if version == "" {
		// Default to the newest PROMOTED version: online-refit proposals
		// live in the same registry but must never become a boot default —
		// staging via POST /admin/rollout is their only path to serving.
		promoted, _, err := reg.Partition()
		if err != nil {
			return nil, err
		}
		if len(promoted) == 0 {
			return nil, fmt.Errorf("registry %s holds only proposed versions; promote one before serving", root)
		}
		version = promoted[len(promoted)-1]
	}
	gen, err := reg.Load(version, dataset)
	if err != nil {
		return nil, err
	}
	cfg.Version = gen.Version
	cfg.Checksum = gen.ArtifactSHA256
	cfg.LoadVersion = func(version string) (*experiments.Artifacts, string, error) {
		g, err := reg.Load(version, dataset)
		if err != nil {
			return nil, "", err
		}
		return g.Artifacts, g.ArtifactSHA256, nil
	}
	cfg.ListVersions = func() []string {
		vs, err := reg.Versions()
		if err != nil {
			return nil
		}
		return vs
	}
	cfg.ListProposed = func() []string {
		_, proposed, err := reg.Partition()
		if err != nil {
			return nil
		}
		return proposed
	}
	fmt.Fprintf(os.Stderr, "registry %s: serving version %s (sha256 %.12s…) of %d available\n",
		root, gen.Version, gen.ArtifactSHA256, len(versions))
	return gen.Artifacts, nil
}

// buildLearner constructs the Learner judged against the boot artifacts
// arts, whose record builds the gate's signals as it builds the serving
// guard's. The learner keeps arts (its refits write their networks) and
// a packed copy of its own; the serving factory keeps only its packed
// copy. cfg carries the log, refit and registry wiring.
func buildLearner(arts *experiments.Artifacts, cfg learn.Config) (*learn.Learner, error) {
	cfg.Artifacts = arts
	cfg.Logf = func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, format+"\n", args...)
	}
	if cfg.RegistryRoot != "" {
		cfg.Now = time.Now
	}
	return learn.New(cfg)
}

func runServer(o *options) error {
	cfg := o.cfg
	var arts *experiments.Artifacts
	var err error
	switch {
	case o.registry != "":
		arts, err = bootFromRegistry(&cfg, o.registry, o.dataset, "")
	case o.models != "":
		arts, err = loadArtifacts(o.dataset, o.models)
	default:
		err = errors.New("no artifacts to serve: pass -models DIR (osap-train -out) or -registry DIR (osap-train -registry)")
	}
	if err != nil {
		return err
	}
	warnBoundThresholds(os.Stderr, arts)
	factory, err := serve.NewGuardFactory(arts, serve.GuardConfig{Probation: o.probation})
	if err != nil {
		return err
	}
	if o.learnLog != "" {
		learner, err := buildLearner(arts, learn.Config{
			LogDir:        o.learnLog,
			RefitEvery:    o.learnRefitEvery,
			RegistryRoot:  o.registry,
			ParentVersion: cfg.Version,
		})
		if err != nil {
			return err
		}
		defer learner.Stop() //nolint:errcheck // exit path; log close error is cosmetic
		cfg.Learner = learner
		fmt.Fprintf(os.Stderr, "online learning enabled: experience log %s (refit-every %d)\n", o.learnLog, o.learnRefitEvery)
	}
	srv, err := serve.NewServer(factory, cfg)
	if err != nil {
		return err
	}
	srv.StartSweeper()

	httpSrv := &http.Server{Addr: o.addr, Handler: srv}
	errc := make(chan error, 2)
	go func() {
		if err := httpSrv.ListenAndServe(); !errors.Is(err, http.ErrServerClosed) {
			errc <- err
		}
	}()
	var binLn net.Listener
	if o.binAddr != "" {
		binLn, err = net.Listen("tcp", o.binAddr)
		if err != nil {
			return err
		}
		go func() {
			if err := srv.ServeBinary(binLn); err != nil {
				errc <- err
			}
		}()
		fmt.Fprintf(os.Stderr, "osap-serve %s: binary protocol on %s\n", buildinfo.Version, o.binAddr)
	}
	fmt.Fprintf(os.Stderr, "osap-serve %s: serving %s artifacts on %s (schemes %v)\n",
		buildinfo.Version, factory.Dataset(), o.addr, factory.Schemes())

	// SIGHUP means nothing here; Go's default for it is to exit, which
	// would end the server without a drain.
	signal.Ignore(syscall.SIGHUP)
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	select {
	case err := <-errc:
		return err
	case s := <-sig:
		fmt.Fprintf(os.Stderr, "received %s: draining...\n", s)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Drain(ctx, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "drain:", err)
	}
	if binLn != nil {
		binLn.Close() //nolint:errcheck // drain already closed the conns
	}
	return httpSrv.Shutdown(ctx)
}
