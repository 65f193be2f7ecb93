package trace

import (
	"fmt"
	"sort"

	"osap/internal/stats"
)

// Dataset is a named collection of traces with the paper's splits: 70%
// of the traces form the training set and 30% the test set; the
// validation set is the last 30% of the training set (§3.1) and is used
// for threshold calibration.
type Dataset struct {
	Name  string
	Train []*Trace
	Val   []*Trace // subset of Train
	Test  []*Trace
}

// Split partitions traces into a Dataset using the paper's 70/30 rule.
// The input order is preserved (shuffle beforehand if needed). It panics
// if fewer than 4 traces are supplied.
func Split(name string, traces []*Trace) *Dataset {
	if len(traces) < 4 {
		panic(fmt.Sprintf("trace: Split(%s): need at least 4 traces, got %d", name, len(traces)))
	}
	nTrain := (len(traces) * 7) / 10
	if nTrain == 0 {
		nTrain = 1
	}
	train := traces[:nTrain]
	test := traces[nTrain:]
	nVal := (len(train) * 3) / 10
	if nVal == 0 {
		nVal = 1
	}
	val := train[len(train)-nVal:]
	return &Dataset{Name: name, Train: train, Val: val, Test: test}
}

// GenerateDataset builds a dataset of n traces of the given duration from
// gen, deterministically from seed, and splits it 70/30.
func GenerateDataset(gen Generator, seed uint64, n, durationSec int) *Dataset {
	rng := stats.NewRNG(seed)
	var name string
	switch g := gen.(type) {
	case IIDGenerator:
		name = g.Name
	case MarkovGenerator:
		name = g.Name
	default:
		name = gen.String()
	}
	traces := make([]*Trace, n)
	for i := range traces {
		tr := gen.Generate(rng, durationSec)
		tr.Name = fmt.Sprintf("%s/%03d", name, i)
		traces[i] = tr
	}
	return Split(name, traces)
}

// The six dataset names used throughout the evaluation, in the paper's
// presentation order.
const (
	DatasetNorway      = "norway"
	DatasetBelgium     = "belgium"
	DatasetGamma12     = "gamma12"
	DatasetGamma22     = "gamma22"
	DatasetLogistic    = "logistic"
	DatasetExponential = "exponential"
)

// DatasetNames returns the six dataset names in canonical order.
func DatasetNames() []string {
	return []string{
		DatasetNorway, DatasetBelgium,
		DatasetGamma12, DatasetGamma22, DatasetLogistic, DatasetExponential,
	}
}

// IsEmpirical reports whether the named dataset stands in for one of the
// paper's empirical (measured) datasets, as opposed to the synthetic
// i.i.d. ones. The distinction matters for the U_S window size: the paper
// uses k=5 for empirical distributions and k=30 for synthetic ones.
func IsEmpirical(name string) bool {
	return name == DatasetNorway || name == DatasetBelgium
}

// GeneratorFor returns the canonical generator for one of the six paper
// dataset names, or an error for an unknown name.
func GeneratorFor(name string) (Generator, error) {
	switch name {
	case DatasetNorway:
		return Norway3G(), nil
	case DatasetBelgium:
		return Belgium4G(), nil
	case DatasetGamma12:
		return IIDGenerator{Name: name, Dist: stats.Gamma{Shape: 1, Scale: 2}, MaxMbps: 12}, nil
	case DatasetGamma22:
		return IIDGenerator{Name: name, Dist: stats.Gamma{Shape: 2, Scale: 2}, MaxMbps: 16}, nil
	case DatasetLogistic:
		return IIDGenerator{Name: name, Dist: stats.Logistic{Mu: 4, S: 0.5}, MaxMbps: 12}, nil
	case DatasetExponential:
		return IIDGenerator{Name: name, Dist: stats.Exponential{Scale: 1}, MaxMbps: 8}, nil
	default:
		return nil, fmt.Errorf("trace: unknown dataset %q (want one of %v)", name, DatasetNames())
	}
}

// RegistryConfig sizes the generated datasets.
type RegistryConfig struct {
	Seed        uint64
	TracesPer   int // traces per dataset
	DurationSec int // seconds per trace
}

// DefaultRegistryConfig returns the sizes used by the experiment harness:
// 60 traces of 600 s per dataset.
func DefaultRegistryConfig() RegistryConfig {
	return RegistryConfig{Seed: 20201104, TracesPer: 60, DurationSec: 600}
}

// BuildRegistry deterministically generates all six datasets. Dataset
// seeds are derived from cfg.Seed and the dataset's index in canonical
// order, so each dataset's contents are independent of the others.
func BuildRegistry(cfg RegistryConfig) (map[string]*Dataset, error) {
	names := DatasetNames()
	sort.Strings(names) // seed derivation independent of presentation order
	out := make(map[string]*Dataset, len(names))
	for i, name := range names {
		gen, err := GeneratorFor(name)
		if err != nil {
			return nil, err
		}
		seed := cfg.Seed + uint64(i)*0x9e3779b97f4a7c15
		out[name] = GenerateDataset(gen, seed, cfg.TracesPer, cfg.DurationSec)
	}
	return out, nil
}
