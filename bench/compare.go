package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"reflect"
	"slices"
	"sort"

	"osap/internal/stats"
)

// specMetric is one metric entry of BENCHMARK.json.
type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// benchSpec is the part of BENCHMARK.json the benchmark itself reads.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

func loadSpec(path string) (*benchSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// watched are the per-layer metrics a user would feel first. They are
// ungated — on the machine that set the bounds they did not repeat
// within a tenth — so -compare judges them against watchedBound for
// the reader and never fails on them.
var watched = []string{"step_p50_us", "step_p99_us", "capacity_steps_per_s", "open_p50_us"}

const watchedBound = 0.25

// exactCounts repeat to the unit for a seed; a difference between two
// result sets is a change of behaviour, not noise.
var exactCounts = []string{"core.fallback_share", "core.trigger_firings"}

// Verdicts of one (metric, workload) comparison.
const (
	verdictImproved   = "improved"
	verdictUnchanged  = "unchanged"
	verdictRegressed  = "regressed"
	verdictUnresolved = "unresolved"
)

// side summarises one result set's runs of one metric.
type side struct {
	q1, med, q3     float64
	lowest, highest float64
}

func summarise(values []float64) side {
	return side{q1: stats.Quantile(values, 0.25), med: stats.Median(values), q3: stats.Quantile(values, 0.75),
		lowest: stats.Min(values), highest: stats.Max(values)}
}

// judge compares B against A for a metric where lower (or higher) is
// better, against the bound by which it may worsen. A difference
// beyond the bound is real only if the runs resolve it: when either
// side's quartile spread exceeds the bound and the two sides' runs
// overlap, the verdict is unresolved, never unchanged.
func judge(a, b side, better string, bound float64) string {
	if a.med == 0 {
		if b.med == 0 {
			return verdictUnchanged
		}
		return verdictUnresolved
	}
	worse := (b.med - a.med) / a.med
	if better == "higher" {
		worse = -worse
	}
	spread := max((a.q3-a.q1)/a.med, (b.q3-b.q1)/a.med)
	overlap := a.lowest <= b.highest && b.lowest <= a.highest
	if spread > bound && overlap {
		return verdictUnresolved
	}
	switch {
	case worse > bound:
		return verdictRegressed
	case worse < -bound:
		return verdictImproved
	}
	return verdictUnchanged
}

func readResults(path string) (*resultFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(f.Runs) < 3 {
		return nil, fmt.Errorf("%s holds %d runs; a side needs at least 3 (go run ./bench -runs 3 -out %s)", path, len(f.Runs), path)
	}
	return &f, nil
}

// measuredAlike reports why two result sets must not be compared: the
// rates, the seeds or the phase lengths differ.
func measuredAlike(a, b *resultFile) error {
	key := func(f *resultFile) (seeds []uint64, shape environment) {
		for _, r := range f.Runs {
			seeds = append(seeds, r.Env.Seed)
		}
		sort.Slice(seeds, func(i, j int) bool { return seeds[i] < seeds[j] })
		e := f.Runs[0].Env
		return seeds, environment{Seconds: e.Seconds, Rates: e.Rates, ViewerRate: e.ViewerRate, LoneThinkUs: e.LoneThinkUs,
			PhaseShares: e.PhaseShares, Cycles: e.Cycles, WarmupSeconds: e.WarmupSeconds, LatencyLimitUs: e.LatencyLimitUs,
			SetupRepetition: e.SetupRepetition}
	}
	sa, ea := key(a)
	sb, eb := key(b)
	if !reflect.DeepEqual(sa, sb) {
		return fmt.Errorf("seed sets differ: %v vs %v", sa, sb)
	}
	if !reflect.DeepEqual(ea, eb) {
		return fmt.Errorf("rates or phase lengths differ: %+v vs %+v", ea, eb)
	}
	return nil
}

// runCompare prints, per workload and end-to-end metric, each side's
// median and quartiles and a verdict against the metric's bound. It
// fails on any regression, any rise in failed_share and any change of
// an exact count.
func runCompare(paths []string, specPath, out string) error {
	if len(paths) != 2 {
		return fmt.Errorf("-compare takes two result files, got %d", len(paths))
	}
	spec, err := loadSpec(specPath)
	if err != nil {
		return err
	}
	a, err := readResults(paths[0])
	if err != nil {
		return err
	}
	b, err := readResults(paths[1])
	if err != nil {
		return err
	}
	if err := measuredAlike(a, b); err != nil {
		return fmt.Errorf("refusing to compare: %w", err)
	}
	var table bytes.Buffer
	bad := compareSets(&table, spec, a, b)
	if out == "" {
		_, err = os.Stdout.Write(table.Bytes())
	} else {
		err = os.WriteFile(out, table.Bytes(), 0o644)
	}
	if err != nil {
		return err
	}
	if bad > 0 {
		return fmt.Errorf("%d regressions", bad)
	}
	return nil
}

// compareSets writes the comparison table and returns how many rows
// are regressions.
func compareSets(w io.Writer, spec *benchSpec, a, b *resultFile) int {
	values := func(f *resultFile, workload, name string) []float64 {
		var vs []float64
		for _, r := range f.Runs {
			if res := r.Workloads[workload]; res != nil {
				if m, ok := res.Metrics[name]; ok {
					vs = append(vs, m.Value)
				}
			}
		}
		return vs
	}
	bad := 0
	fmt.Fprintf(w, "A: commit %s, %d runs    B: commit %s, %d runs\n",
		a.Runs[0].Env.Commit, len(a.Runs), b.Runs[0].Env.Commit, len(b.Runs))
	fmt.Fprintf(w, "%-11s %-22s %-6s %34s %34s %8s  %s\n", "workload", "metric", "bound",
		"A median [q1, q3]", "B median [q1, q3]", "B vs A", "verdict")
	for _, wl := range spec.Workloads {
		for _, m := range spec.EndToEnd {
			va, vb := values(a, wl.Name, m.Name), values(b, wl.Name, m.Name)
			if len(va) < 3 || len(vb) < 3 {
				fmt.Fprintf(w, "%-11s %-22s missing on one side\n", wl.Name, m.Name)
				bad++
				continue
			}
			sa, sb := summarise(va), summarise(vb)
			verdict := judge(sa, sb, m.Better, m.Bound)
			if verdict == verdictRegressed {
				bad++
			}
			fmt.Fprintf(w, "%-11s %-22s %-6.2f %12.4g [%9.4g, %9.4g] %12.4g [%9.4g, %9.4g] %+7.1f%%  %s\n",
				wl.Name, m.Name, m.Bound, sa.med, sa.q1, sa.q3, sb.med, sb.q1, sb.q3, 100*(sb.med-sa.med)/sa.med, verdict)
		}
		for _, m := range spec.PerLayer {
			va, vb := values(a, wl.Name, m.Name), values(b, wl.Name, m.Name)
			if !slices.Contains(watched, m.Name) || len(va) < 3 || len(vb) < 3 {
				continue
			}
			sa, sb := summarise(va), summarise(vb)
			fmt.Fprintf(w, "%-11s %-22s %-6.2f %12.4g [%9.4g, %9.4g] %12.4g [%9.4g, %9.4g] %+7.1f%%  (ungated) %s\n",
				wl.Name, m.Name, watchedBound, sa.med, sa.q1, sa.q3, sb.med, sb.q1, sb.q3, 100*(sb.med-sa.med)/sa.med,
				judge(sa, sb, m.Better, watchedBound))
		}
		fa, fb := values(a, wl.Name, "failed_share"), values(b, wl.Name, "failed_share")
		if len(fa) > 0 && len(fb) > 0 {
			worstA, worstB := summarise(fa).highest, summarise(fb).highest
			verdict := verdictUnchanged
			if worstB > worstA {
				verdict = verdictRegressed
				bad++
			}
			fmt.Fprintf(w, "%-11s %-22s %-6s %34.6g %34.6g %8s  %s\n", wl.Name, "failed_share (worst)", "0", worstA, worstB, "", verdict)
		}
		for _, name := range exactCounts {
			ca, cb := values(a, wl.Name, name), values(b, wl.Name, name)
			if len(ca) == 0 || len(cb) == 0 {
				continue
			}
			verdict := "identical"
			for _, v := range append(append([]float64(nil), ca...), cb...) {
				if v != ca[0] {
					verdict = "differs: " + verdictRegressed
				}
			}
			if verdict != "identical" {
				bad++
			}
			fmt.Fprintf(w, "%-11s %-22s %-6s %34.10g %34.10g %8s  %s\n", wl.Name, name, "exact", ca[0], cb[0], "", verdict)
		}
	}
	return bad
}
