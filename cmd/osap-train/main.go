// Command osap-train trains the per-dataset artifacts — the Pensieve
// agent ensemble, the value-function ensemble, the OC-SVM novelty
// detector and the calibrated defaulting thresholds — and persists them
// as JSON for later use by osap-repro and osap-serve.
//
// Usage:
//
//	osap-train [-dataset norway|belgium|gamma12|gamma22|logistic|exponential|all]
//	           [-scale paper|quick] [-out models] [-v]
//
// With -registry the run is published into a versioned artifact
// registry (checksummed manifest, atomic rename-publish) instead of a
// flat -out directory, ready for osap-serve hot-reload:
//
//	osap-train -dataset norway -registry ./registry -artifact-version v2 -parent v1
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"osap/internal/buildinfo"
	"osap/internal/experiments"
	"osap/internal/learn"
	"osap/internal/registry"
	"osap/internal/trace"
)

func main() {
	dataset := flag.String("dataset", "all", "dataset to train on, or all")
	scale := flag.String("scale", "paper", "run scale: paper or quick")
	out := flag.String("out", "models", "output directory for artifacts")
	registryDir := flag.String("registry", "", "publish into this versioned registry root instead of -out")
	artifactVersion := flag.String("artifact-version", "", "version name to publish under (required with -registry)")
	parent := flag.String("parent", "", "lineage: the registry version this one supersedes")
	notes := flag.String("notes", "", "free-form provenance note recorded in the manifest")
	learnLog := flag.String("learn-log", "", "also export the U_S training features as an experience-log bootstrap into this directory (for osap-serve -learn-log)")
	verbose := flag.Bool("v", false, "print training progress")
	version := flag.Bool("version", false, "print version and exit")
	flag.Parse()

	if *version {
		buildinfo.Print(os.Stdout, "osap-train")
		return
	}

	if *registryDir != "" && *artifactVersion == "" {
		fmt.Fprintln(os.Stderr, "osap-train: -registry requires -artifact-version")
		os.Exit(1)
	}
	if *learnLog != "" && *dataset == "all" {
		fmt.Fprintln(os.Stderr, "osap-train: -learn-log exports one dataset's features; pass -dataset explicitly")
		os.Exit(1)
	}
	if err := run(*dataset, *scale, *out, *registryDir, *artifactVersion, *parent, *notes, *learnLog, *verbose); err != nil {
		fmt.Fprintln(os.Stderr, "osap-train:", err)
		os.Exit(1)
	}
}

func run(dataset, scale, out, registryDir, artifactVersion, parent, notes, learnLog string, verbose bool) error {
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

	var names []string
	if dataset == "all" {
		names = trace.DatasetNames()
	} else {
		if _, err := trace.GeneratorFor(dataset); err != nil {
			return err
		}
		names = []string{dataset}
	}
	if registryDir != "" && len(names) != 1 {
		return fmt.Errorf("-registry publishes one dataset per version; pass -dataset explicitly")
	}
	for _, name := range names {
		a, err := lab.Artifacts(name)
		if err != nil {
			return err
		}
		if registryDir != "" {
			m, err := registry.WriteVersion(registryDir, registry.Meta{
				Version:   artifactVersion,
				Parent:    parent,
				CreatedAt: time.Now().UTC().Format(time.RFC3339),
				Notes:     notes,
			}, a)
			if err != nil {
				return err
			}
			fmt.Printf("%s: ensemble=%d value-fns=%d SVs=%d alpha_pi=%.4g alpha_V=%.4g -> %s/%s (%d file(s), parent %q)\n",
				name, len(a.Agents), len(a.ValueNets), a.OCSVM.NumSVs(), a.AlphaPi, a.AlphaV,
				registryDir, m.Version, len(m.Files), m.Parent)
			continue
		}
		path, err := experiments.SaveArtifacts(out, a)
		if err != nil {
			return err
		}
		fmt.Printf("%s: ensemble=%d value-fns=%d SVs=%d alpha_pi=%.4g alpha_V=%.4g -> %s\n",
			name, len(a.Agents), len(a.ValueNets), a.OCSVM.NumSVs(), a.AlphaPi, a.AlphaV, path)
	}
	if learnLog != "" {
		a, err := lab.Artifacts(names[0])
		if err != nil {
			return err
		}
		feats, err := lab.StateFeatures(a)
		if err != nil {
			return err
		}
		n, err := learn.ExportBootstrap(learnLog, feats)
		if err != nil {
			return err
		}
		fmt.Printf("%s: exported %d bootstrap records to %s (serve with -learn-log %s)\n", names[0], n, learnLog, learnLog)
	}
	return nil
}
