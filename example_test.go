package osap_test

import (
	"fmt"
	"log"
	"math"

	"osap"
	"osap/internal/stats"
)

// scalerEnv is a toy datacenter autoscaler MDP. Observation:
// [trafficRate/1000, hourOfDay/24]. Actions: replica counts
// {2, 4, 8, 16, 32}. Reward is negative cost (replica-hours + SLO
// violations).
type scalerEnv struct {
	rng        *stats.RNG
	hour       int
	flashCrowd bool
	traffic    float64
	steps      int
}

var replicaChoices = []int{2, 4, 8, 16, 32}

// diurnal returns the expected request rate (req/s) for an hour of day.
func diurnal(hour int) float64 {
	return 300 + 250*math.Sin(2*math.Pi*float64(hour-9)/24)
}

func (e *scalerEnv) Reset(rng *stats.RNG) []float64 {
	e.rng = rng
	e.hour = 0
	e.steps = 0
	e.sample()
	return e.obs()
}

func (e *scalerEnv) sample() {
	mean := diurnal(e.hour)
	if e.flashCrowd && e.hour >= 12 {
		mean *= 6 // viral event: 6× the tuned-for traffic
	}
	e.traffic = math.Max(0, mean+40*e.rng.NormFloat64())
}

func (e *scalerEnv) obs() []float64 {
	return []float64{e.traffic / 1000, float64(e.hour) / 24}
}

func (e *scalerEnv) Step(action int) ([]float64, float64, bool) {
	replicas := replicaChoices[action]
	capacity := float64(replicas) * 50 // each replica serves 50 req/s
	cost := float64(replicas) * 1.0    // replica-hour cost
	if e.traffic > capacity {
		cost += (e.traffic - capacity) * 0.5 // SLO violation penalty
	}
	e.hour++
	e.steps++
	done := e.steps >= 24
	e.sample()
	return e.obs(), -cost, done
}

func (e *scalerEnv) NumActions() int { return len(replicaChoices) }
func (e *scalerEnv) ObsDim() int     { return 2 }

// tunedPolicy is the "learned" component: a table tuned offline for the
// diurnal pattern, provisioning ~20% headroom over its forecast.
type tunedPolicy struct{}

// forecast is the traffic model the policy was tuned against.
func (tunedPolicy) forecast(hourFrac float64) float64 { return diurnal(int(hourFrac*24 + 0.5)) }

func (p tunedPolicy) Probs(obs []float64) []float64 {
	need := p.forecast(obs[1]) * 1.2 / 50
	choice := 0
	for i, r := range replicaChoices {
		if float64(r) >= need {
			choice = i
			break
		}
		choice = i
	}
	out := make([]float64, len(replicaChoices))
	out[choice] = 1
	return out
}

// overProvision is the safe default: always run the largest fleet.
type overProvision struct{}

func (overProvision) Probs([]float64) []float64 {
	out := make([]float64, len(replicaChoices))
	out[len(out)-1] = 1
	return out
}

// forecastErrorSignal is a custom osap.Signal: uncertainty is the
// relative deviation of observed traffic from the learned policy's own
// forecast — a domain-specific analogue of the paper's U_S.
type forecastErrorSignal struct {
	policy tunedPolicy
}

func (s *forecastErrorSignal) Observe(obs []float64) float64 {
	expected := s.policy.forecast(obs[1])
	actual := obs[0] * 1000
	return math.Abs(actual-expected) / math.Max(expected, 1)
}

func (s *forecastErrorSignal) Reset()       {}
func (s *forecastErrorSignal) Name() string { return "forecast-error" }

// Online safety assurance outside the ABR case study, with a
// user-defined uncertainty signal.
//
// The paper argues OSAP applies to any learning-augmented sequential
// decision maker. A "learned" autoscaler (a lookup table tuned offline
// for a diurnal traffic pattern) is wrapped with a custom
// prediction-error Signal: the policy carries its own traffic forecast,
// and the signal scores how far reality deviates from it. On a normal
// day the guard never switches; when a flash crowd hits — traffic the
// policy was never tuned for — it defaults to a conservative
// always-overprovision policy.
func Example_customSignal() {
	learned := tunedPolicy{}
	signal := &forecastErrorSignal{policy: learned}
	// Default when the forecast is off by >80% for 2 consecutive hours.
	guard, err := osap.NewGuard(learned, overProvision{}, signal, osap.NewTrigger(osap.TriggerConfig{
		Threshold: 0.8,
		L:         2,
		Latched:   true,
	}))
	if err != nil {
		log.Fatal(err)
	}

	for _, scenario := range []struct {
		name  string
		flash bool
	}{
		{"normal diurnal day (in-distribution)", false},
		{"flash-crowd day (out-of-distribution)", true},
	} {
		runDay := func(policy osap.Policy, reset func()) float64 {
			env := &scalerEnv{flashCrowd: scenario.flash}
			if reset != nil {
				reset()
			}
			traj := osap.Rollout(env, policy, osap.NewRNG(99), 0)
			return traj.TotalReward()
		}
		tuned := runDay(learned, nil)
		safe := runDay(overProvision{}, nil)
		guarded := runDay(guard, guard.Reset)

		fmt.Printf("%s:\n", scenario.name)
		fmt.Printf("  tuned policy cost:      %8.0f\n", -tuned)
		fmt.Printf("  overprovision cost:     %8.0f\n", -safe)
		fmt.Printf("  guarded policy cost:    %8.0f (switched at hour %d)\n\n",
			-guarded, guard.SwitchStep())
	}
	fmt.Println("the guard keeps the tuned policy's cost on normal days and")
	fmt.Println("bounds the flash-crowd damage by defaulting to overprovisioning.")

	// Output:
	// normal diurnal day (in-distribution):
	//   tuned policy cost:           246
	//   overprovision cost:          768
	//   guarded policy cost:         246 (switched at hour -1)
	//
	// flash-crowd day (out-of-distribution):
	//   tuned policy cost:         11358
	//   overprovision cost:         6828
	//   guarded policy cost:        6906 (switched at hour 13)
	//
	// the guard keeps the tuned policy's cost on normal days and
	// bounds the flash-crowd damage by defaulting to overprovisioning.
}
