package experiments

import (
	"fmt"
	"strings"

	"osap/internal/stats"
)

// Figure1Result reproduces Figure 1: in-distribution QoE of Pensieve,
// the three safety-enhanced variants, and BB on all six matched
// (train, test) pairs.
type Figure1Result struct {
	// Rows[dataset][scheme] = mean QoE.
	Rows map[string]map[string]float64
	// Order is the dataset presentation order.
	Order []string
}

// Figure1 runs the six in-distribution evaluations.
func (l *Lab) Figure1() (*Figure1Result, error) {
	res := &Figure1Result{Rows: map[string]map[string]float64{}, Order: datasetOrder()}
	for _, pair := range PairList(true) {
		r, err := l.EvaluatePair(pair[0], pair[1])
		if err != nil {
			return nil, err
		}
		res.Rows[pair[0]] = r
	}
	return res, nil
}

// Render formats the figure as a text table.
func (f *Figure1Result) Render() string {
	schemes := []string{SchemePensieve, SchemeND, SchemeAEns, SchemeVEns, SchemeBB}
	return grid("Figure 1: in-distribution QoE (train = test)\n", "dataset", schemes, f.Order,
		func(d, s string) float64 { return f.Rows[d][s] })
}

// grid renders a titled table: a header of the column names, then one
// row per name with value(row, column) in each column.
func grid(title, corner string, cols, rows []string, value func(row, col string) float64) string {
	var b strings.Builder
	b.WriteString(title)
	fmt.Fprintf(&b, "%-12s", corner)
	for _, c := range cols {
		fmt.Fprintf(&b, "%12s", c)
	}
	b.WriteByte('\n')
	for _, r := range rows {
		fmt.Fprintf(&b, "%-12s", r)
		for _, c := range cols {
			fmt.Fprintf(&b, "%12.2f", value(r, c))
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// Figure2Result reproduces Figure 2: raw QoE of Pensieve vs BB vs Random
// when trained on one dataset and tested on all.
type Figure2Result struct {
	TrainDataset string
	// Rows[test][scheme] = mean QoE.
	Rows  map[string]map[string]float64
	Order []string
}

// Figure2 evaluates one training dataset against every test dataset
// (the paper shows Belgium and Gamma(2,2)).
func (l *Lab) Figure2(trainDS string) (*Figure2Result, error) {
	res := &Figure2Result{TrainDataset: trainDS, Rows: map[string]map[string]float64{}, Order: datasetOrder()}
	for _, te := range datasetOrder() {
		r, err := l.EvaluatePair(trainDS, te)
		if err != nil {
			return nil, err
		}
		res.Rows[te] = r
	}
	return res, nil
}

// Render formats the figure as a text table.
func (f *Figure2Result) Render() string {
	return grid(fmt.Sprintf("Figure 2: Pensieve trained on %s, raw QoE across test datasets\n", f.TrainDataset),
		"test", []string{SchemePensieve, SchemeBB, SchemeRandom}, f.Order,
		func(d, s string) float64 { return f.Rows[d][s] })
}

// Figure3Result reproduces Figure 3: Pensieve's normalized score
// (Random = 0, BB = 1) for every (train, test) combination.
type Figure3Result struct {
	// Score[train][test] = normalized Pensieve score.
	Score map[string]map[string]float64
	Order []string
}

// Figure3 evaluates the full grid.
func (l *Lab) Figure3() (*Figure3Result, error) {
	res := &Figure3Result{Score: map[string]map[string]float64{}, Order: datasetOrder()}
	for _, tr := range datasetOrder() {
		res.Score[tr] = map[string]float64{}
		for _, te := range datasetOrder() {
			r, err := l.EvaluatePair(tr, te)
			if err != nil {
				return nil, err
			}
			res.Score[tr][te] = NormalizedScore(r, SchemePensieve)
		}
	}
	return res, nil
}

// Render formats the figure as a train×test matrix.
func (f *Figure3Result) Render() string {
	return grid("Figure 3: Pensieve normalized score (0 = Random, 1 = BB); rows = train, cols = test\n",
		"train\\test", f.Order, f.Order, func(tr, te string) float64 { return f.Score[tr][te] })
}

// Figure4Result reproduces Figure 4: max/min/mean/median normalized
// score of each scheme across the 30 OOD pairs.
type Figure4Result struct {
	// Stats[scheme] summarizes normalized scores over OOD pairs.
	Stats map[string]stats.Summary
	// MeanCI[scheme] is a 95% bootstrap confidence interval on the mean
	// normalized score.
	MeanCI map[string][2]float64
	// Raw[scheme] keeps the underlying per-pair scores (reused by
	// Figure 5).
	Raw map[string][]float64
}

// ood4Schemes are the schemes compared OOD in Figures 4 and 5.
func ood4Schemes() []string {
	return []string{SchemePensieve, SchemeND, SchemeAEns, SchemeVEns}
}

// Figure4 aggregates the 30 OOD pairs.
func (l *Lab) Figure4() (*Figure4Result, error) {
	raw := map[string][]float64{}
	for _, pair := range PairList(false) {
		r, err := l.EvaluatePair(pair[0], pair[1])
		if err != nil {
			return nil, err
		}
		for _, s := range ood4Schemes() {
			raw[s] = append(raw[s], NormalizedScore(r, s))
		}
	}
	res := &Figure4Result{
		Stats:  map[string]stats.Summary{},
		MeanCI: map[string][2]float64{},
		Raw:    raw,
	}
	// One RNG draws every scheme's resamples, so the schemes take it in
	// presentation order, never map order.
	rng := stats.NewRNG(l.cfg.Seed ^ 0xB007)
	for _, s := range ood4Schemes() {
		xs := raw[s]
		res.Stats[s] = stats.Summarize(xs)
		lo, hi := stats.BootstrapCI(xs, stats.Mean, 2000, 0.95, rng)
		res.MeanCI[s] = [2]float64{lo, hi}
	}
	return res, nil
}

// Render formats the figure as a text table.
func (f *Figure4Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 4: normalized score over %d OOD pairs (0 = Random, 1 = BB)\n",
		f.Stats[SchemePensieve].N)
	fmt.Fprintf(&b, "%-12s%10s%10s%10s%10s%20s\n", "scheme", "max", "min", "mean", "median", "mean 95% CI")
	for _, s := range ood4Schemes() {
		st := f.Stats[s]
		ci := f.MeanCI[s]
		fmt.Fprintf(&b, "%-12s%10.2f%10.2f%10.2f%10.2f      [%6.2f,%6.2f]\n",
			s, st.Max, st.Min, st.Mean, st.Median, ci[0], ci[1])
	}
	return b.String()
}

// Figure5Result reproduces Figure 5: the CDF of normalized scores across
// the 30 OOD pairs for each scheme.
type Figure5Result struct {
	CDFs map[string]*stats.ECDF
}

// Figure5 builds the per-scheme ECDFs.
func (l *Lab) Figure5() (*Figure5Result, error) {
	f4, err := l.Figure4()
	if err != nil {
		return nil, err
	}
	res := &Figure5Result{CDFs: map[string]*stats.ECDF{}}
	for _, s := range ood4Schemes() {
		res.CDFs[s] = stats.NewECDF(f4.Raw[s])
	}
	return res, nil
}

// Render tabulates each CDF at fixed probe points.
func (f *Figure5Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 5: CDF of normalized score across OOD pairs\n")
	probes := []float64{-2, -1, -0.5, 0, 0.25, 0.5, 0.75, 1, 1.5, 2}
	fmt.Fprintf(&b, "%-12s", "scheme\\x")
	for _, p := range probes {
		fmt.Fprintf(&b, "%7.2f", p)
	}
	b.WriteByte('\n')
	for _, s := range ood4Schemes() {
		fmt.Fprintf(&b, "%-12s", s)
		for _, p := range probes {
			fmt.Fprintf(&b, "%7.2f", f.CDFs[s].At(p))
		}
		b.WriteByte('\n')
	}
	return b.String()
}
