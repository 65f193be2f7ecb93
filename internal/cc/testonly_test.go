package cc

// RandomPolicy selects rate factors uniformly — the naive baseline the
// tests measure the AIMD policy against. No shipping code uses it, so it
// lives in a test file.
type RandomPolicy struct{}

// Probs implements mdp.Policy.
func (RandomPolicy) Probs([]float64) []float64 {
	out := make([]float64, len(RateFactors))
	u := 1 / float64(len(RateFactors))
	for i := range out {
		out[i] = u
	}
	return out
}
