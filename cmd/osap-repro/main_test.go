package main

import (
	"os"
	"path/filepath"
	"testing"

	"osap/internal/experiments"
)

func TestRunSingleFigureQuick(t *testing.T) {
	// Figure 2 only needs artifacts for its two featured training
	// datasets, keeping the quick-scale smoke test fast.
	if err := run("2", "", "quick", "", "", false); err != nil {
		t.Fatal(err)
	}
}

func TestRunWithPretrainedModels(t *testing.T) {
	// Train one dataset, persist, and verify -models loads it.
	lab, err := experiments.NewLab(experiments.QuickConfig())
	if err != nil {
		t.Fatal(err)
	}
	a, err := lab.Artifacts("gamma22")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if _, err := experiments.SaveArtifacts(dir, a); err != nil {
		t.Fatal(err)
	}
	if err := run("2", "", "quick", dir, "", false); err != nil {
		t.Fatal(err)
	}
	// A corrupt artifact file must surface as an error.
	bad := t.TempDir()
	if err := writeFile(filepath.Join(bad, "gamma22.json"), "{"); err != nil {
		t.Fatal(err)
	}
	if err := run("2", "", "quick", bad, "", false); err == nil {
		t.Error("corrupt artifacts accepted")
	}
}

func TestRunEvaluatesPair(t *testing.T) {
	if err := run("", "gamma22,exponential", "quick", "", "", false); err != nil {
		t.Fatal(err)
	}
}

func TestRunInDistribution(t *testing.T) {
	if err := run("", "gamma12,gamma12", "quick", "", "", false); err != nil {
		t.Fatal(err)
	}
}

func TestRunErrors(t *testing.T) {
	if err := run("1", "", "gigantic", "", "", false); err == nil {
		t.Error("unknown scale accepted")
	}
	if err := run("7", "", "quick", "", "", false); err == nil {
		t.Error("unknown figure accepted")
	}
}

func TestRunPairErrors(t *testing.T) {
	for _, pair := range []string{",norway", "norway,", "norway", "nope,norway"} {
		if err := run("", pair, "quick", "", "", false); err == nil {
			t.Errorf("-pair %q accepted", pair)
		}
	}
	if err := run("", "norway,norway", "huge", "", "", false); err == nil {
		t.Error("-pair with an unknown scale accepted")
	}
}

// writeFile is a tiny helper for corrupt-artifact fixtures.
func writeFile(path, content string) error {
	return os.WriteFile(path, []byte(content), 0o644)
}
