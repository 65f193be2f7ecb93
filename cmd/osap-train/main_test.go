package main

import (
	"os"
	"path/filepath"
	"testing"

	"osap/internal/experiments"
	"osap/internal/learn"
	"osap/internal/registry"
	"osap/internal/wal"
)

func TestRunTrainsAndPersists(t *testing.T) {
	dir := t.TempDir()
	if err := run("gamma22", "quick", dir, "", "", "", "", "", false); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "gamma22.json")
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("artifact not written: %v", err)
	}
	a, err := experiments.LoadArtifacts(path)
	if err != nil {
		t.Fatal(err)
	}
	if a.Dataset != "gamma22" || len(a.Agents) == 0 {
		t.Errorf("bad artifacts: %+v", a.Dataset)
	}
}

func TestRunExportsLearnBootstrap(t *testing.T) {
	dir := t.TempDir()
	learnDir := filepath.Join(dir, "xplog")
	if err := run("gamma22", "quick", dir, "", "", "", "", learnDir, false); err != nil {
		t.Fatal(err)
	}
	var recs []learn.Record
	l, err := wal.Open(learnDir, func(p []byte) bool {
		rec, ok := learn.DecodeRecord(p, nil)
		if ok {
			recs = append(recs, rec)
		}
		return ok
	})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close() //nolint:errcheck
	if len(recs) == 0 {
		t.Fatal("-learn-log exported no bootstrap records")
	}
	a, err := experiments.LoadArtifacts(filepath.Join(dir, "gamma22.json"))
	if err != nil {
		t.Fatal(err)
	}
	// The exported features are the matrix the published OC-SVM was
	// trained on: same dimension, and in-distribution for it.
	in := 0
	for _, r := range recs {
		if len(r.Feat) != a.OCSVM.Dim {
			t.Fatalf("bootstrap record dim %d, OC-SVM dim %d", len(r.Feat), a.OCSVM.Dim)
		}
		if a.OCSVM.Decision(r.Feat) >= 0 {
			in++
		}
	}
	if in < len(recs)/2 {
		t.Errorf("only %d/%d bootstrap records are in-distribution for the trained model", in, len(recs))
	}
}

func TestRunPublishesToRegistry(t *testing.T) {
	root := t.TempDir()
	if err := run("gamma22", "quick", "", root, "v1", "", "first", "", false); err != nil {
		t.Fatal(err)
	}
	reg, err := registry.Open(root)
	if err != nil {
		t.Fatal(err)
	}
	gen, err := reg.Load("v1", "gamma22")
	if err != nil {
		t.Fatalf("published version does not load back: %v", err)
	}
	if gen.Manifest.Notes != "first" || gen.Artifacts.Dataset != "gamma22" {
		t.Errorf("manifest %+v, artifacts dataset %q", gen.Manifest, gen.Artifacts.Dataset)
	}
	// Publishing the same version again must be refused.
	if err := run("gamma22", "quick", "", root, "v1", "", "", "", false); err == nil {
		t.Error("duplicate version publish accepted")
	}
	// Registry mode publishes one dataset per version.
	if err := run("all", "quick", "", root, "v2", "", "", "", false); err == nil {
		t.Error("-registry with -dataset all accepted")
	}
}

func TestRunErrors(t *testing.T) {
	if err := run("gamma22", "mega", t.TempDir(), "", "", "", "", "", false); err == nil {
		t.Error("unknown scale accepted")
	}
	if err := run("nope", "quick", t.TempDir(), "", "", "", "", "", false); err == nil {
		t.Error("unknown dataset accepted")
	}
}
