package mdp

import (
	"math"
	"testing"

	"osap/internal/stats"
)

// chainEnv is a deterministic 1-D chain: action 1 moves right (+1
// reward at the goal), action 0 moves left. Episodes end at either end
// or after the step cap.
type chainEnv struct {
	n   int
	pos int
}

func (c *chainEnv) Reset(*stats.RNG) []float64 {
	c.pos = c.n / 2
	return c.obs()
}

func (c *chainEnv) obs() []float64 { return []float64{float64(c.pos) / float64(c.n)} }

func (c *chainEnv) Step(a int) ([]float64, float64, bool) {
	if a == 1 {
		c.pos++
	} else {
		c.pos--
	}
	switch {
	case c.pos >= c.n:
		return c.obs(), 1, true
	case c.pos <= 0:
		return c.obs(), -1, true
	default:
		return c.obs(), 0, false
	}
}

func (c *chainEnv) NumActions() int { return 2 }
func (c *chainEnv) ObsDim() int     { return 1 }

func alwaysRight(obs []float64) []float64 { return []float64{0, 1} }

func TestRolloutReachesGoal(t *testing.T) {
	env := &chainEnv{n: 6}
	traj := Rollout(env, PolicyFunc(alwaysRight), stats.NewRNG(1), RolloutOptions{})
	if traj.TotalReward() != 1 {
		t.Errorf("TotalReward = %v, want 1", traj.TotalReward())
	}
	if traj.Len() != 3 {
		t.Errorf("Len = %d, want 3", traj.Len())
	}
	if traj.FinalObs[0] != 1 {
		t.Errorf("FinalObs = %v, want [1]", traj.FinalObs)
	}
}

func TestRolloutMaxSteps(t *testing.T) {
	env := &chainEnv{n: 1000}
	traj := Rollout(env, PolicyFunc(alwaysRight), stats.NewRNG(1), RolloutOptions{MaxSteps: 7})
	if traj.Len() != 7 {
		t.Errorf("Len = %d, want 7 (truncated)", traj.Len())
	}
}

func TestRolloutOnStepHook(t *testing.T) {
	env := &chainEnv{n: 6}
	var seen []int
	Rollout(env, PolicyFunc(alwaysRight), stats.NewRNG(1), RolloutOptions{
		OnStep: func(step int, tr Transition) {
			seen = append(seen, tr.Action)
			if tr.Probs[1] != 1 {
				t.Error("hook did not receive policy probs")
			}
		},
	})
	if len(seen) != 3 {
		t.Errorf("hook called %d times, want 3", len(seen))
	}
}

func TestRolloutGreedy(t *testing.T) {
	env := &chainEnv{n: 4}
	// Stochastic-looking policy that slightly prefers right; greedy must
	// always go right.
	p := PolicyFunc(func(obs []float64) []float64 { return []float64{0.49, 0.51} })
	traj := Rollout(env, p, stats.NewRNG(1), RolloutOptions{Greedy: true})
	for _, s := range traj.Steps {
		if s.Action != 1 {
			t.Fatal("greedy rollout took non-argmax action")
		}
	}
}

func TestDiscountedReturns(t *testing.T) {
	traj := &Trajectory{Steps: []Transition{
		{Reward: 1}, {Reward: 2}, {Reward: 3},
	}}
	got := traj.DiscountedReturns(0.5)
	want := []float64{1 + 0.5*(2+0.5*3), 2 + 0.5*3, 3}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-12 {
			t.Fatalf("returns = %v, want %v", got, want)
		}
	}
}

func TestDiscountedReturnsGammaOne(t *testing.T) {
	traj := &Trajectory{Steps: []Transition{{Reward: 1}, {Reward: 2}, {Reward: 3}}}
	got := traj.DiscountedReturns(1)
	if got[0] != 6 || got[1] != 5 || got[2] != 3 {
		t.Fatalf("undiscounted returns = %v", got)
	}
}

func TestSampleActionDistribution(t *testing.T) {
	rng := stats.NewRNG(42)
	probs := []float64{0.2, 0.5, 0.3}
	counts := make([]int, 3)
	n := 100000
	for i := 0; i < n; i++ {
		counts[SampleAction(rng, probs)]++
	}
	for a, p := range probs {
		freq := float64(counts[a]) / float64(n)
		if math.Abs(freq-p) > 0.01 {
			t.Errorf("action %d frequency %v, want ~%v", a, freq, p)
		}
	}
}

func TestSampleActionDegenerateMass(t *testing.T) {
	// Mass summing slightly below 1 must still return a valid action.
	rng := stats.NewRNG(1)
	for i := 0; i < 1000; i++ {
		a := SampleAction(rng, []float64{0.3, 0.3, 0.3})
		if a < 0 || a > 2 {
			t.Fatalf("invalid action %d", a)
		}
	}
}

func TestArgmaxAction(t *testing.T) {
	if a := ArgmaxAction([]float64{0.1, 0.7, 0.2}); a != 1 {
		t.Errorf("Argmax = %d, want 1", a)
	}
	// Ties break toward the lower index.
	if a := ArgmaxAction([]float64{0.5, 0.5}); a != 0 {
		t.Errorf("tie Argmax = %d, want 0", a)
	}
}

func TestOneHot(t *testing.T) {
	p := OneHot(4, 2)
	want := []float64{0, 0, 1, 0}
	for i := range want {
		if p[i] != want[i] {
			t.Fatalf("OneHot = %v", p)
		}
	}
}

func TestOneHotPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	OneHot(3, 3)
}

func TestRolloutDeterministicWithSeed(t *testing.T) {
	p := PolicyFunc(func(obs []float64) []float64 { return []float64{0.5, 0.5} })
	run := func() []int {
		env := &chainEnv{n: 8}
		traj := Rollout(env, p, stats.NewRNG(7), RolloutOptions{MaxSteps: 50})
		actions := make([]int, traj.Len())
		for i, s := range traj.Steps {
			actions[i] = s.Action
		}
		return actions
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatal("seeded rollouts differ in length")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("seeded rollouts differ")
		}
	}
}
