// Package nondet seeds determinism violations for the golden-file
// test. The directive below opts the package into the nondeterminism
// analyzer the same way the core training packages are opted in by
// import path.
//
//osap:deterministic
package nondet

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"osap/internal/stats"
)

// stamp reads the wall clock.
func stamp() int64 { return time.Now().UnixNano() }

// jitter uses the process-global RNG.
func jitter() float64 { return rand.Float64() }

// seeded threads an explicit source: clean.
func seeded(seed int64) float64 { return rand.New(rand.NewSource(seed)).Float64() }

// keysUnsorted leaks map order into its result.
func keysUnsorted(m map[string]int) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	return out
}

// keysSorted sorts afterwards; the in-loop append is suppressed with a
// reason.
func keysSorted(m map[string]int) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		//osap:ignore nondeterminism keys are sorted immediately below
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// total is order-independent: clean.
func total(m map[string]int) int {
	n := 0
	for _, v := range m {
		n += v
	}
	return n
}

// dump prints in map order.
func dump(m map[string]int) {
	for k, v := range m {
		fmt.Println(k, v)
	}
}

// resample draws one shared generator in map order, calling it and
// passing it along.
func resample(m map[string][]float64, rng *stats.RNG) map[string]float64 {
	out := map[string]float64{}
	for k, xs := range m {
		out[k] = xs[rng.Intn(len(xs))]
		out[k] += stats.Mean(shuffled(xs, rng))
	}
	return out
}

// pickOne ranges over a map the caller guarantees holds one key, so
// there is no order to leak; the finding is suppressed with a reason.
func pickOne(m map[string][]float64, rng *stats.RNG) float64 {
	for _, xs := range m {
		//osap:ignore nondeterminism the map holds exactly one key
		return xs[rng.Intn(len(xs))]
	}
	return 0
}

// resamplePerKey derives a generator inside the loop from the key:
// clean.
func resamplePerKey(m map[string][]float64, seed uint64) map[string]float64 {
	out := map[string]float64{}
	for k, xs := range m {
		r := stats.NewRNG(seed ^ uint64(len(k)))
		out[k] = xs[r.Intn(len(xs))]
	}
	return out
}

func shuffled(xs []float64, rng *stats.RNG) []float64 { return xs }
