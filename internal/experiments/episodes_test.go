package experiments

import (
	"errors"
	"math"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"osap/internal/abr"
	"osap/internal/core"
	"osap/internal/mdp"
	"osap/internal/stats"
)

// TestEpisodeTableMatchesDirectPath recomputes one quick-scale pair the
// way the figures were computed before the episode table — a rollout
// per episode averaged with stats.Mean for a plain policy,
// core.EvaluateGuard averaged with core.MeanQoE for a guard — and
// requires every scheme's mean from the table, and every guarded
// episode's record, to match it bit for bit.
func TestEpisodeTableMatchesDirectPath(t *testing.T) {
	const train, test = "gamma22", "gamma12"
	l := freshLabWithArtifacts(t, train)
	got, err := l.EvaluatePair(train, test)
	if err != nil {
		t.Fatal(err)
	}
	a, frozen, err := l.trained(train)
	if err != nil {
		t.Fatal(err)
	}
	d, err := l.Dataset(test)
	if err != nil {
		t.Fatal(err)
	}
	n, levels := l.cfg.EvalEpisodes, l.cfg.EvalVideo.NumLevels()
	plain := map[string]mdp.Policy{
		SchemePensieve: frozen.NewScratch().Greedy(),
		SchemeBB:       abr.NewBBPolicy(levels),
		SchemeRandom:   abr.RandomPolicy{Levels: levels},
	}
	for _, s := range Schemes() {
		env := l.newEnv(l.cfg.EvalVideo, d.Test)
		rng := stats.NewRNG(l.cfg.Seed ^ hashString(train+"→"+test) ^ hashString(s))
		var want float64
		if p, ok := plain[s]; ok {
			qoe := make([]float64, n)
			for i := range qoe {
				qoe[i] = mdp.Rollout(env, p, rng, mdp.RolloutOptions{}).TotalReward()
			}
			want = stats.Mean(qoe)
		} else {
			g, err := NewGuard(&a.Calibration, s, frozen.NewScratch(), Probation{})
			if err != nil {
				t.Fatal(err)
			}
			res := core.EvaluateGuard(env, g, rng, n)
			want = core.MeanQoE(res)
			eps, err := l.episodes(episodeKey{train, test, s}, nil)
			if err != nil {
				t.Fatal(err)
			}
			for i, r := range res {
				e := eps[i]
				if math.Float64bits(e.QoE) != math.Float64bits(r.QoE) || e.Steps != r.Steps ||
					e.Defaulted != r.DefaultedSteps || e.FiredAt != r.SwitchStep || e.Readmissions != r.Readmissions {
					t.Errorf("%s episode %d: record %+v, direct %+v", s, i, e, r)
				}
			}
		}
		if math.Float64bits(got[s]) != math.Float64bits(want) {
			t.Errorf("%s: table mean %v, direct path %v", s, got[s], want)
		}
	}
}

// resetReplay wraps an abr.Env and, before each Reset, replays the
// draws Reset makes — the trace index, then the start offset — on a
// copy of the episode's RNG.
type resetReplay struct {
	*abr.Env
	cfg   abr.EnvConfig
	names []string
	start []float64
}

func (r *resetReplay) Reset(rng *stats.RNG) []float64 {
	c := *rng
	tr := r.cfg.Traces[c.Intn(len(r.cfg.Traces))]
	r.names = append(r.names, tr.Name)
	r.start = append(r.start, c.Float64()*tr.Duration())
	return r.Env.Reset(rng)
}

// TestEpisodeRecordsTraceAndStart checks that each record names the
// trace and start offset its episode played, against an independent
// replay of Env.Reset's draws under the same RNG stream.
func TestEpisodeRecordsTraceAndStart(t *testing.T) {
	l := sharedMicroLab(t)
	d, err := l.Dataset("norway")
	if err != nil {
		t.Fatal(err)
	}
	const n, seed = 6, 77
	policy := abr.RandomPolicy{Levels: l.cfg.EvalVideo.NumLevels()}
	eps := l.play(d.Test, policy, seed, n)

	cfg := abr.DefaultEnvConfig(l.cfg.EvalVideo, d.Test)
	replay := &resetReplay{Env: l.newEnv(l.cfg.EvalVideo, d.Test), cfg: cfg}
	rng := stats.NewRNG(seed)
	for i := 0; i < n; i++ {
		mdp.Rollout(replay, policy, rng, mdp.RolloutOptions{})
	}
	distinct := map[float64]bool{}
	for i, e := range eps {
		if e.Trace != replay.names[i] || math.Float64bits(e.Start) != math.Float64bits(replay.start[i]) {
			t.Errorf("episode %d: record %q at %v, replay %q at %v", i, e.Trace, e.Start, replay.names[i], replay.start[i])
		}
		distinct[e.Start] = true
	}
	if len(distinct) < 2 {
		t.Errorf("the %d episodes share one start offset; the replay proves nothing", n)
	}
}

// TestEpisodeTableSingleFlight: concurrent requests for one key run its
// episodes once and share one slice; a failed fill is not kept.
func TestEpisodeTableSingleFlight(t *testing.T) {
	l := sharedMicroLab(t)
	d, err := l.Dataset("gamma22")
	if err != nil {
		t.Fatal(err)
	}
	k := episodeKey{"gamma22", "gamma22", "single-flight"}
	var fills atomic.Int32
	fill := func() ([]episode, error) {
		fills.Add(1)
		time.Sleep(20 * time.Millisecond) // let the other callers queue behind this run
		return l.play(d.Test, abr.NewBBPolicy(l.cfg.EvalVideo.NumLevels()), 5, 2), nil
	}
	const callers = 8
	got := make([][]episode, callers)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			eps, err := l.episodes(k, fill)
			if err != nil {
				t.Error(err)
			}
			got[i] = eps
		}(i)
	}
	wg.Wait()
	if n := fills.Load(); n != 1 {
		t.Fatalf("%d concurrent requests ran the episodes %d times, want once", callers, n)
	}
	for i, eps := range got {
		if len(eps) != 2 || &eps[0] != &got[0][0] {
			t.Fatalf("caller %d got a different slice", i)
		}
	}

	bad := episodeKey{"gamma22", "gamma22", "failing"}
	boom := errors.New("boom")
	if _, err := l.episodes(bad, func() ([]episode, error) { return nil, boom }); err != boom {
		t.Fatalf("failed fill: err %v, want %v", err, boom)
	}
	eps, err := l.episodes(bad, fill)
	if err != nil || len(eps) != 2 {
		t.Fatalf("retry after a failure: %d episodes, err %v", len(eps), err)
	}
}
