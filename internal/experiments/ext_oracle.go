package experiments

import (
	"fmt"
	"strings"

	"osap/internal/abr"
	"osap/internal/stats"
)

// OracleHeadroomResult reports, per test dataset, the offline-optimal
// QoE (computed by the beam-search planner with full knowledge of future
// throughput) next to what the online schemes achieve — the headroom
// analysis Pensieve's own evaluation performs, applied to the safety
// schemes.
type OracleHeadroomResult struct {
	TrainDataset string
	// OracleQoE[test] is the mean offline-optimal QoE over the sampled
	// test traces.
	OracleQoE map[string]float64
	// Fraction[scheme][test] = scheme QoE / oracle QoE (only meaningful
	// when the oracle QoE is positive, which it is on all six
	// datasets).
	Fraction map[string]map[string]float64
	Tests    []string
}

// OracleHeadroom computes the offline optimum for every test dataset
// (sampling traceSamples test traces with deterministic offsets) and
// relates each scheme's measured QoE to it. It reuses the cached pair
// evaluations for the scheme QoE values.
func (l *Lab) OracleHeadroom(trainDS string, traceSamples int) (*OracleHeadroomResult, error) {
	if traceSamples <= 0 {
		traceSamples = 4
	}
	res := &OracleHeadroomResult{
		TrainDataset: trainDS,
		OracleQoE:    map[string]float64{},
		Fraction:     map[string]map[string]float64{},
	}
	schemes := []string{SchemePensieve, SchemeND, SchemeAEns, SchemeVEns, SchemeBB}
	for _, s := range schemes {
		res.Fraction[s] = map[string]float64{}
	}

	envCfg := abr.DefaultEnvConfig(l.cfg.EvalVideo, nil)

	for _, te := range datasetOrder() {
		res.Tests = append(res.Tests, te)
		d := l.datasets[te]
		rng := stats.NewRNG(l.cfg.Seed ^ hashString(te) ^ 0x0AC1E)
		var sum float64
		n := traceSamples
		if n > len(d.Test) {
			n = len(d.Test)
		}
		for i := 0; i < n; i++ {
			tr := d.Test[i]
			offset := rng.Float64() * tr.Duration()
			q, err := abr.OfflineOptimalQoE(envCfg, 256, tr, offset)
			if err != nil {
				return nil, fmt.Errorf("experiments: oracle on %s/%d: %w", te, i, err)
			}
			sum += q
		}
		oracle := sum / float64(n)
		res.OracleQoE[te] = oracle

		pair, err := l.EvaluatePair(trainDS, te)
		if err != nil {
			return nil, err
		}
		for _, s := range schemes {
			if oracle != 0 {
				res.Fraction[s][te] = pair[s] / oracle
			}
		}
	}
	return res, nil
}

// Render formats the analysis as a text table.
func (r *OracleHeadroomResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Oracle headroom (train = %s): scheme QoE as a fraction of the offline optimum\n", r.TrainDataset)
	fmt.Fprintf(&b, "%-12s", "scheme\\test")
	for _, te := range r.Tests {
		fmt.Fprintf(&b, "%12s", te)
	}
	b.WriteByte('\n')
	fmt.Fprintf(&b, "%-12s", "oracle QoE")
	for _, te := range r.Tests {
		fmt.Fprintf(&b, "%12.1f", r.OracleQoE[te])
	}
	b.WriteByte('\n')
	for _, s := range []string{SchemePensieve, SchemeND, SchemeAEns, SchemeVEns, SchemeBB} {
		fmt.Fprintf(&b, "%-12s", s)
		for _, te := range r.Tests {
			fmt.Fprintf(&b, "%12.2f", r.Fraction[s][te])
		}
		b.WriteByte('\n')
	}
	return b.String()
}
