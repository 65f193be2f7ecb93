package experiments

import (
	"math"
	"testing"

	"osap/internal/abr"
	"osap/internal/core"
	"osap/internal/mdp"
	"osap/internal/rl"
	"osap/internal/stats"
)

// TestAEnsembleReadsMemberZero: an A-ensemble guard acts on the
// distribution U_π's member 0, the deployed agent, has just computed,
// so its step runs one forward per member — five for the paper's five —
// where the V-ensemble and ND guards run the deployed agent's own
// forward on the steps it acts. Every scheme decides bit for bit as a
// guard whose deployed agent forwards on a workspace of its own, over a
// tape of in- and out-of-distribution observations.
func TestAEnsembleReadsMemberZero(t *testing.T) {
	cfg := microConfig()
	cfg.EnsembleSize, cfg.Trim = 5, core.DefaultEnsembleConfig()
	l, err := NewLab(cfg)
	if err != nil {
		t.Fatal(err)
	}
	a, frozen, err := l.trained("norway")
	if err != nil {
		t.Fatal(err)
	}
	tape := bbTape(t, l, cfg.EvalVideo, "norway", "belgium")
	for _, scheme := range []string{SchemeAEns, SchemeVEns, SchemeND} {
		sc := frozen.NewScratch()
		got, err := NewGuard(&a.Calibration, scheme, sc, Probation{})
		if err != nil {
			t.Fatal(err)
		}
		want, err := NewGuard(&a.Calibration, scheme, frozen.NewScratch(), Probation{})
		if err != nil {
			t.Fatal(err)
		}
		want.Learned = rl.NewGreedyInference(a.Agents[0])
		var signal uint64 // the forwards of the scheme's signal
		switch scheme {
		case SchemeAEns:
			signal = uint64(len(sc.Policies()))
		case SchemeVEns:
			signal = uint64(len(sc.Values()))
		}
		learned := 0
		for i, obs := range tape {
			if i%10 == 0 { // short episodes, so the learned policy acts on a share of the steps
				got.Reset()
				want.Reset()
			}
			before := sc.Forwards()
			g, w := got.Decide(obs), want.Decide(obs)
			forwards := sc.Forwards() - before
			if math.Float64bits(g.Score) != math.Float64bits(w.Score) || g.UsedDefault != w.UsedDefault ||
				g.Fired != w.Fired || g.Step != w.Step || len(g.Probs) != len(w.Probs) {
				t.Fatalf("%s step %d: %+v, want %+v", scheme, i, g, w)
			}
			for j := range w.Probs {
				if math.Float64bits(g.Probs[j]) != math.Float64bits(w.Probs[j]) {
					t.Fatalf("%s step %d: probs %v, want %v", scheme, i, g.Probs, w.Probs)
				}
			}
			wantForwards := signal
			if !g.UsedDefault {
				learned++
				if scheme != SchemeAEns {
					wantForwards++
				}
			}
			if forwards != wantForwards {
				t.Fatalf("%s step %d (default %v): %d forwards, want %d", scheme, i, g.UsedDefault, forwards, wantForwards)
			}
		}
		if learned == 0 {
			t.Errorf("%s: the learned policy never acted on the tape", scheme)
		}
		t.Logf("%s: learned policy acted on %d of %d steps, %d signal forwards a step", scheme, learned, len(tape), signal)
	}
}

// bbTape records the observations of the buffer-based policy streaming
// over each dataset's test traces in turn, 150 steps each.
func bbTape(t *testing.T, l *Lab, video *abr.Video, datasets ...string) [][]float64 {
	t.Helper()
	bb := abr.NewBBPolicy(video.NumLevels())
	rng := stats.NewRNG(0x7a9e)
	var tape [][]float64
	for _, name := range datasets {
		d, err := l.Dataset(name)
		if err != nil {
			t.Fatal(err)
		}
		env, err := abr.NewEnv(abr.DefaultEnvConfig(video, d.Test))
		if err != nil {
			t.Fatal(err)
		}
		obs := env.Reset(rng)
		for i := 0; i < 150; i++ {
			tape = append(tape, append([]float64(nil), obs...))
			next, _, done := env.Step(mdp.ArgmaxAction(bb.Probs(obs)))
			if obs = next; done {
				obs = env.Reset(rng)
			}
		}
	}
	return tape
}
