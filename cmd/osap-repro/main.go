// Command osap-repro regenerates the paper's evaluation figures
// (Figures 1–5 of "Online Safety Assurance for Learning-Augmented
// Systems", HotNets '20) end to end: it generates the six datasets,
// trains a Pensieve agent ensemble, value ensemble and OC-SVM per
// training distribution, calibrates the defaulting thresholds, runs the
// 36-pair evaluation grid, and prints each figure as a text table.
//
// Usage:
//
//	osap-repro [-fig all|1|2|3|4|5|ext] [-scale paper|quick] [-models dir] [-v]
//	osap-repro -pair gamma22,exponential [-scale paper|quick] [-models dir] [-v]
//
// With -models, artifacts previously produced by osap-train are loaded
// instead of retrained (missing datasets are trained on demand). -pair
// evaluates one (train, test) dataset pair instead of the figures: the
// QoE of vanilla Pensieve, the three safety-enhanced variants, BB and
// Random on the test distribution, raw and normalized.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"

	"osap/internal/buildinfo"
	"osap/internal/experiments"
	"osap/internal/trace"
)

func main() {
	fig := flag.String("fig", "all", "figure to regenerate: all, 1, 2, 3, 4, 5 or ext (future-work extensions)")
	pair := flag.String("pair", "", "evaluate one train,test dataset pair instead of the figures")
	scale := flag.String("scale", "paper", "run scale: paper or quick")
	models := flag.String("models", "", "directory of pre-trained artifacts (from osap-train)")
	save := flag.String("save", "", "directory to persist trained artifacts into after the run")
	verbose := flag.Bool("v", false, "print training/evaluation progress")
	version := flag.Bool("version", false, "print version and exit")
	flag.Parse()

	if *version {
		buildinfo.Print(os.Stdout, "osap-repro")
		return
	}

	if err := run(*fig, *pair, *scale, *models, *save, *verbose); err != nil {
		fmt.Fprintln(os.Stderr, "osap-repro:", err)
		os.Exit(1)
	}
}

func run(fig, pair, scale, models, save string, verbose bool) error {
	var cfg experiments.Config
	switch scale {
	case "paper":
		cfg = experiments.PaperConfig()
	case "quick":
		cfg = experiments.QuickConfig()
	default:
		return fmt.Errorf("unknown -scale %q (want paper or quick)", scale)
	}
	lab, err := experiments.NewLab(cfg)
	if err != nil {
		return err
	}
	if verbose {
		lab.Progress = func(s string) { fmt.Fprintln(os.Stderr, s) }
	}
	if models != "" {
		for _, name := range trace.DatasetNames() {
			path := filepath.Join(models, name+".json")
			if _, err := os.Stat(path); err != nil {
				continue
			}
			a, err := experiments.LoadArtifacts(path)
			if err != nil {
				return err
			}
			if err := lab.InstallArtifacts(a); err != nil {
				return err
			}
			if verbose {
				fmt.Fprintf(os.Stderr, "loaded artifacts for %s from %s\n", name, path)
			}
		}
	}

	if pair != "" {
		err = printPair(lab, pair)
	} else {
		err = printFigures(lab, fig)
	}
	if err != nil {
		return err
	}
	if save != "" {
		for _, name := range trace.DatasetNames() {
			a, err := lab.Artifacts(name)
			if err != nil {
				return err
			}
			path, err := experiments.SaveArtifacts(save, a)
			if err != nil {
				return err
			}
			if verbose {
				fmt.Fprintln(os.Stderr, "saved", path)
			}
		}
	}
	return nil
}

// printPair evaluates one "train,test" dataset pair and prints each
// scheme's raw and normalized QoE.
func printPair(lab *experiments.Lab, pair string) error {
	trainDS, testDS, _ := strings.Cut(pair, ",")
	if trainDS == "" || testDS == "" {
		return fmt.Errorf("-pair %q: want train,test (datasets: %v)", pair, trace.DatasetNames())
	}
	r, err := lab.EvaluatePair(trainDS, testDS)
	if err != nil {
		return err
	}
	rel := "OOD"
	if trainDS == testDS {
		rel = "in-distribution"
	}
	fmt.Printf("train=%s test=%s (%s)\n", trainDS, testDS, rel)
	fmt.Printf("%-12s%12s%12s\n", "scheme", "QoE", "normalized")
	for _, s := range experiments.Schemes() {
		fmt.Printf("%-12s%12.2f%12.2f\n", s, r[s], experiments.NormalizedScore(r, s))
	}
	return nil
}

// printFigures regenerates the figures fig names ("all" or a comma
// list) and prints each as a text table.
func printFigures(lab *experiments.Lab, fig string) error {
	figs := []string{"1", "2", "3", "4", "5", "ext"}
	if fig == "all" {
		fig = strings.Join(figs, ",")
	}
	wanted := map[string]bool{}
	for _, f := range strings.Split(fig, ",") {
		f = strings.TrimSpace(f)
		if !slices.Contains(figs, f) {
			return fmt.Errorf("unknown figure %q (want 1-5, ext or all)", f)
		}
		wanted[f] = true
	}
	// show prints a table, or passes on the error that built none.
	show := func(t interface{ Render() string }, err error) error {
		if err == nil {
			fmt.Println(t.Render())
		}
		return err
	}
	featured := []string{"belgium", "gamma22"}
	if wanted["1"] {
		if err := show(lab.Figure1()); err != nil {
			return err
		}
	}
	if wanted["2"] {
		for _, tr := range featured {
			if err := show(lab.Figure2(tr)); err != nil {
				return err
			}
		}
	}
	if wanted["3"] {
		if err := show(lab.Figure3()); err != nil {
			return err
		}
	}
	if wanted["4"] {
		if err := show(lab.Figure4()); err != nil {
			return err
		}
	}
	if wanted["5"] {
		if err := show(lab.Figure5()); err != nil {
			return err
		}
	}
	if wanted["ext"] {
		for _, tr := range featured {
			if err := show(lab.ExtensionDefaults(tr)); err != nil {
				return err
			}
			if err := show(lab.ExtensionSignals(tr)); err != nil {
				return err
			}
			if err := show(lab.ExtensionTriggers(tr)); err != nil {
				return err
			}
			if err := show(lab.ExtensionRecovery(tr)); err != nil {
				return err
			}
			if err := show(lab.OracleHeadroom(tr, 4)); err != nil {
				return err
			}
		}
	}
	return nil
}
