// Command bench is the repository's benchmark: it measures the guard
// server as a client sees it — step latency under an open-loop
// arrival schedule, capacity, server CPU per step, memory, session
// open latency and set-up time — on four workloads, checks every
// decision bit for bit against a sequential reference, and in a traced
// run adds a layer ladder and client-side spans. README.md beside this
// file explains every workload and metric.
//
//	go run ./bench                                   # all workloads, untraced and traced
//	go run ./bench -workload ens_steady -trace 0     # one run, one JSON result line
//	go run ./bench -runs 3 -out A.json               # a result set for -compare
//	go run ./bench -compare A.json B.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
)

// scratchDir holds the saved artifacts of a run, inside the checkout
// and ignored by git.
const scratchDir = ".bench_run"

// environment is recorded in every result so that two results are
// compared only when they measured the same thing.
type environment struct {
	Commit          string                `json:"commit"`
	GoVersion       string                `json:"go_version"`
	NumCPU          int                   `json:"nproc"`
	CPUModel        string                `json:"cpu_model"`
	ParentProcs     int                   `json:"parent_gomaxprocs"`
	ChildProcs      int                   `json:"child_gomaxprocs"`
	Seed            uint64                `json:"seed"`
	Seconds         float64               `json:"seconds"`
	Rates           map[string][3]float64 `json:"rates_steps_per_s"`
	ViewerRate      float64               `json:"churn_viewers_per_s"`
	LoneThinkUs     float64               `json:"lone_think_us"`
	PhaseShares     map[string][]float64  `json:"phase_shares_of_a_cycle"`
	Cycles          int                   `json:"cycles"`
	WarmupSeconds   float64               `json:"warmup_seconds"`
	LatencyLimitUs  float64               `json:"latency_limit_us"`
	SetupRepetition int                   `json:"setup_repetitions"`
}

func describeEnvironment(seed uint64, seconds float64) environment {
	env := environment{
		Commit: "unknown", GoVersion: runtime.Version(), NumCPU: runtime.NumCPU(), CPUModel: "unknown",
		ParentProcs: runtime.GOMAXPROCS(0), ChildProcs: 1, Seed: seed, Seconds: seconds,
		Rates: map[string][3]float64{}, ViewerRate: fullScale.viewerRate,
		LoneThinkUs: float64(fullScale.loneThink.Microseconds()),
		PhaseShares: map[string][]float64{
			"steady": phaseShares[kindSteady], "lone_http": phaseShares[kindLone], "churn": phaseShares[kindChurn],
		},
		Cycles:        cycles,
		WarmupSeconds: fullScale.warmup.Seconds(), LatencyLimitUs: latencyLimitUs, SetupRepetition: fullScale.setupReps,
	}
	for _, w := range workloads {
		if w.kind == kindSteady {
			env.Rates[w.name] = w.rates
		}
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				env.Commit = s.Value
			}
		}
	}
	if env.Commit == "unknown" {
		if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
			env.Commit = strings.TrimSpace(string(out))
		}
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				env.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	return env
}

// runDoc is one pass over the workloads; resultFile is what -out
// writes and -compare reads.
type runDoc struct {
	Env       environment        `json:"env"`
	Workloads map[string]*result `json:"workloads"`
}

type resultFile struct {
	Runs []runDoc `json:"runs"`
}

func main() {
	if len(os.Args) == 3 && os.Args[1] == childFlag {
		if cpu, err := strconv.Atoi(os.Getenv(childCPUEnv)); err == nil {
			pinToCPU(cpu)
		}
		if err := serveChild(os.Args[2]); err != nil {
			fmt.Fprintln(os.Stderr, "bench child:", err)
			os.Exit(1)
		}
		return
	}
	name := flag.String("workload", "", "run one workload and print one JSON result line (default: all, as a table)")
	seed := flag.Uint64("seed", 1, "seed of the tapes and arrival schedules; the same seed gives the same inputs")
	seconds := flag.Float64("seconds", 20, "measured seconds per run")
	trace := flag.Int("trace", 0, "with -workload: 0 reports the end-to-end metrics, 1 the per-layer metrics of a traced run")
	traceOut := flag.String("trace-out", "", "write the traced run's spans to this file as JSON")
	runs := flag.Int("runs", 1, "without -workload: passes over all workloads (a -compare side needs 3)")
	out := flag.String("out", "", "without -workload: write the result set to this file")
	compare := flag.Bool("compare", false, "compare two result sets: -compare A.json B.json")
	spec := flag.String("benchmark", "BENCHMARK.json", "metric bounds for -compare")
	verbose := flag.Bool("v", false, "with -workload: also print every phase and metric to standard error")
	flag.Parse()

	// The generator is one spinning goroutine; a second P would only
	// take the server's core.
	runtime.GOMAXPROCS(1)
	pinApart()

	var err error
	switch {
	case *compare:
		err = runCompare(flag.Args(), *spec, *out)
	case *name != "":
		err = runOne(*name, *seed, *seconds, *trace != 0, *traceOut, *verbose)
	default:
		err = runAll(*seed, *seconds, *runs, *out, *traceOut)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// runOne is the driver's entry: one workload, one mode, one JSON line.
func runOne(name string, seed uint64, seconds float64, traced bool, traceOut string, verbose bool) error {
	w, ok := findWorkload(name)
	if !ok {
		return fmt.Errorf("unknown workload %q", name)
	}
	spec, err := loadSpec("BENCHMARK.json")
	if err != nil {
		return err
	}
	res, err := runWorkload(w, fullScale, seed, seconds, traced, scratchDir)
	if verbose && res != nil {
		printResult(os.Stderr, 0, res)
	}
	if err != nil {
		return err
	}
	if res.Invalid != "" {
		return fmt.Errorf("%s: the generator did not keep up, so the run measured nothing: %s", name, res.Invalid)
	}
	if err := writeSpans(traceOut, res.spans); err != nil {
		return err
	}
	wanted := spec.EndToEnd
	if traced {
		wanted = spec.PerLayer
	}
	line := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, map[string]metric{}}
	for _, m := range wanted {
		v, ok := res.Metrics[m.Name]
		if !ok {
			return fmt.Errorf("%s: metric %s was not measured", name, m.Name)
		}
		line.Metrics[m.Name] = v
	}
	data, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Println(string(data))
	if !res.Correct || res.Failed > 0 {
		return fmt.Errorf("%s: %d of %d operations failed: %s", name, res.Failed, res.Attempted, res.FirstBad)
	}
	return nil
}

// runAll measures every workload untraced and traced, prints every
// metric by name with its unit, and optionally writes the result set.
func runAll(seed uint64, seconds float64, runs int, out, traceOut string) error {
	var file resultFile
	failed := false
	for r := 0; r < runs; r++ {
		doc := runDoc{Env: describeEnvironment(seed, seconds), Workloads: map[string]*result{}}
		for _, w := range workloads {
			merged := &result{Workload: w.name, Correct: true, Metrics: map[string]metric{}}
			for _, traced := range []bool{true, false} {
				res, err := runWorkload(w, fullScale, seed, seconds, traced, scratchDir)
				if err != nil {
					return err
				}
				// The untraced run is measured second and overwrites
				// whatever both runs report.
				for k, v := range res.Metrics {
					merged.Metrics[k] = v
				}
				merged.Correct = merged.Correct && res.Correct
				merged.Attempted += res.Attempted
				merged.Failed += res.Failed
				merged.Phases = res.Phases
				if merged.FirstBad == "" {
					merged.FirstBad = res.FirstBad
				}
				if traced {
					if err := writeSpans(spanFile(traceOut, w.name), res.spans); err != nil {
						return err
					}
				}
			}
			merged.FailedShare = float64(merged.Failed) / float64(merged.Attempted)
			merged.Metrics["failed_share"] = metric{merged.FailedShare, "share"}
			doc.Workloads[w.name] = merged
			printResult(os.Stdout, r, merged)
			failed = failed || !merged.Correct || merged.Failed > 0
		}
		file.Runs = append(file.Runs, doc)
	}
	if out != "" {
		data, err := json.MarshalIndent(file, "", " ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(out, data, 0o644); err != nil {
			return err
		}
	}
	if failed {
		return fmt.Errorf("decisions differed from the sequential reference or operations failed; see above")
	}
	return nil
}

func printResult(w io.Writer, run int, res *result) {
	fmt.Fprintf(w, "== run %d  %s  correct=%v attempted=%d failed=%d\n", run, res.Workload, res.Correct, res.Attempted, res.Failed)
	if res.FirstBad != "" {
		fmt.Fprintf(w, "   first failure: %s\n", res.FirstBad)
	}
	if res.Invalid != "" {
		fmt.Fprintf(w, "   INVALID: %s\n", res.Invalid)
	}
	for _, p := range res.Phases {
		fmt.Fprintf(w, "   phase %-11s offered %6.0f/s %4.1fs x%d  answered %7.0f/s  p50 %7.1f us  p99 %8.1f us (n>=%d)  gen-lag p50 %3.1f p99 %4.1f us  client busy %4.2f stalled %4.2f tainted %5.3f  backlog %.0f %s\n",
			p.Name, p.Rate, p.Seconds, cycles, p.Throughput, p.P50Us, p.P99Us, p.P99MinN, p.GenLagP50, p.GenLagP99, p.CPUShare, p.StallShare, p.Tainted, p.BacklogEnd, p.Invalid)
	}
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := res.Metrics[name]
		fmt.Fprintf(w, "   %-42s %16.4f %s\n", name, m.Value, m.Unit)
	}
}

// spanFile derives a per-workload span file name from -trace-out.
func spanFile(traceOut, workload string) string {
	if traceOut == "" {
		return ""
	}
	return traceOut + "." + workload + ".json"
}

// writeSpans writes the spans kept in memory during a traced run.
func writeSpans(path string, spans []span) error {
	if path == "" || spans == nil {
		return nil
	}
	type named struct {
		span
		Label string `json:"label"`
	}
	out := make([]named, len(spans))
	for i, s := range spans {
		out[i] = named{s, spanNames[s.Name]}
	}
	data, err := json.Marshal(out)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
