package experiments

import (
	"osap/internal/core"
	"osap/internal/mdp"
	"osap/internal/stats"
	"osap/internal/trace"
)

// episode is the record of one played episode. Every number the
// figures and extension tables print is a mean over these records.
type episode struct {
	Trace        string  // name of the trace abr.Env.Reset drew
	Start        float64 // offset into it, seconds
	QoE          float64
	Steps        int
	Defaulted    int // steps the guard's default policy acted on
	FiredAt      int // the guard's first fire step; -1 if it never fired
	Readmissions int // probation re-admissions
}

// play is the one evaluation runner: n episodes of policy over traces
// with the evaluation video, under a fresh RNG from seed. It draws from
// the RNG as mdp.Rollout does (the env's Reset, then one sampled action
// per step), so every mean it feeds is bit-identical to a rollout's. A
// *core.Guard is reset before each episode and its bookkeeping
// recorded; a plain policy's episodes record no defaulted step and no
// firing.
func (l *Lab) play(traces []*trace.Trace, policy mdp.Policy, seed uint64, n int) []episode {
	env, rng := l.newEnv(l.cfg.EvalVideo, traces), stats.NewRNG(seed)
	g, _ := policy.(*core.Guard)
	out := make([]episode, n)
	for i := range out {
		if g != nil {
			g.Reset()
		}
		obs, done := env.Reset(rng), false
		tr, start := env.Episode()
		ep := episode{Trace: tr.Name, Start: start, FiredAt: -1}
		for !done {
			var r float64
			obs, r, done = env.Step(mdp.SampleAction(rng, policy.Probs(obs)))
			ep.QoE += r
			ep.Steps++
		}
		if g != nil {
			ep.Defaulted, ep.FiredAt, ep.Readmissions = g.DefaultedSteps(), g.SwitchStep(), g.Readmissions()
		}
		out[i] = ep
	}
	return out
}

// episodeMeans is what a figure or table prints of a run of episodes.
// Norm is the mean QoE on a pair's normalized scale, set by the caller
// that holds the pair's anchors.
type episodeMeans struct {
	QoE, Norm float64
	Defaulted float64 // mean fraction of steps on the default policy
	Readmits  float64 // mean re-admissions per episode
}

// meanOf reduces episode records to their means; every mean the
// package reports is computed here.
func meanOf(eps []episode) episodeMeans {
	var m episodeMeans
	if len(eps) == 0 {
		return m
	}
	for _, e := range eps {
		m.QoE += e.QoE
		if e.Steps > 0 {
			m.Defaulted += float64(e.Defaulted) / float64(e.Steps)
		}
		m.Readmits += float64(e.Readmissions)
	}
	n := float64(len(eps))
	m.QoE, m.Defaulted, m.Readmits = m.QoE/n, m.Defaulted/n, m.Readmits/n
	return m
}

// episodeKey names an entry of the Lab's episode table: a scheme, or an
// extension's variant of one ("/def/BOLA", "/trig/EWMA", …), trained on
// train and played on test's test traces.
type episodeKey struct{ train, test, scheme string }

// episodes returns the table's records for k, filling them on the
// first request; concurrent requests for k wait for that one run and
// share its slice, which no one may modify.
func (l *Lab) episodes(k episodeKey, fill func() ([]episode, error)) ([]episode, error) {
	return cached(l, l.table, k, func() ([]episode, error) {
		eps, err := fill()
		if err == nil {
			l.logf("[%s→%s] %s: mean QoE %.2f over %d episodes", k.train, k.test, k.scheme, meanOf(eps).QoE, len(eps))
		}
		return eps, err
	})
}
