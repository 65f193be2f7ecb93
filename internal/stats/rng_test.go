package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestRNGDeterministic(t *testing.T) {
	a := NewRNG(42)
	b := NewRNG(42)
	for i := 0; i < 1000; i++ {
		if av, bv := a.Uint64(), b.Uint64(); av != bv {
			t.Fatalf("step %d: same seed diverged: %d != %d", i, av, bv)
		}
	}
}

func TestRNGDifferentSeedsDiffer(t *testing.T) {
	a := NewRNG(1)
	b := NewRNG(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("different seeds produced %d/100 identical outputs", same)
	}
}

func TestRNGZeroSeed(t *testing.T) {
	r := NewRNG(0)
	// Must not be stuck at zero.
	var any uint64
	for i := 0; i < 10; i++ {
		any |= r.Uint64()
	}
	if any == 0 {
		t.Fatal("zero seed produced all-zero stream")
	}
}

func TestForkIndependence(t *testing.T) {
	parent := NewRNG(7)
	child := parent.Fork()
	// The child stream should differ from the parent's continuation.
	same := 0
	for i := 0; i < 100; i++ {
		if parent.Uint64() == child.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("fork stream tracks parent: %d/100 matches", same)
	}
}

func TestForkDeterministic(t *testing.T) {
	a := NewRNG(7).Fork()
	b := NewRNG(7).Fork()
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("forks of identical parents diverged")
		}
	}
}

func TestFloat64Range(t *testing.T) {
	r := NewRNG(3)
	for i := 0; i < 10000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", v)
		}
	}
}

func TestFloat64MeanNearHalf(t *testing.T) {
	r := NewRNG(9)
	var w Welford
	for i := 0; i < 100000; i++ {
		w.Add(r.Float64())
	}
	if math.Abs(w.mean-0.5) > 0.01 {
		t.Fatalf("uniform mean = %v, want ~0.5", w.mean)
	}
	if math.Abs(w.Variance()-1.0/12) > 0.005 {
		t.Fatalf("uniform variance = %v, want ~1/12", w.Variance())
	}
}

func TestIntnBounds(t *testing.T) {
	r := NewRNG(11)
	counts := make([]int, 7)
	for i := 0; i < 70000; i++ {
		counts[r.Intn(7)]++
	}
	for v, c := range counts {
		if c == 0 {
			t.Fatalf("value %d never produced", v)
		}
		if c < 8000 || c > 12000 {
			t.Fatalf("value %d produced %d times, want ~10000", v, c)
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	NewRNG(1).Intn(0)
}

func TestPermIsPermutation(t *testing.T) {
	r := NewRNG(5)
	if err := quick.Check(func(nRaw uint8) bool {
		n := int(nRaw%50) + 1
		p := r.Perm(n)
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestNormFloat64Moments(t *testing.T) {
	r := NewRNG(13)
	var w Welford
	for i := 0; i < 200000; i++ {
		w.Add(r.NormFloat64())
	}
	if math.Abs(w.mean) > 0.01 {
		t.Fatalf("normal mean = %v, want ~0", w.mean)
	}
	if math.Abs(w.Variance()-1) > 0.02 {
		t.Fatalf("normal variance = %v, want ~1", w.Variance())
	}
}

func TestExpFloat64Moments(t *testing.T) {
	r := NewRNG(17)
	var w Welford
	for i := 0; i < 200000; i++ {
		v := r.ExpFloat64()
		if v < 0 {
			t.Fatalf("exponential variate negative: %v", v)
		}
		w.Add(v)
	}
	if math.Abs(w.mean-1) > 0.02 {
		t.Fatalf("exponential mean = %v, want ~1", w.mean)
	}
}

// TestMix64KnownAnswers pins Mix64 to the published SplitMix64 stream
// from seed 0 (Mix64 of the k-th state is its (k+1)-th output), which
// the canary router, the fault schedules and NewRNG's seeding all read.
func TestMix64KnownAnswers(t *testing.T) {
	want := []uint64{0xe220a8397b1dcdaf, 0x6e789e6aa1b965f4, 0x06c45d188009454f}
	var state uint64
	for i, w := range want {
		if got := Mix64(state); got != w {
			t.Errorf("Mix64 at state %d·γ = %#x, want %#x", i, got, w)
		}
		if got := splitmix64(&state); got != w {
			t.Errorf("splitmix64 output %d = %#x, want %#x", i, got, w)
		}
	}
}
