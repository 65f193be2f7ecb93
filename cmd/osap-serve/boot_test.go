package main

import (
	"testing"

	"osap/internal/experiments"
	"osap/internal/registry"
	"osap/internal/serve"
	"osap/internal/trace"
)

// TestBootSyntheticVersionFromRegistry: the U_S window is the served
// artifact's record, so a synthetic-dataset version calibrated under
// k = 5 boots and serves ND through the production -registry path,
// whatever window the quick-scale lab would pick for the dataset's name
// (k = 10).
func TestBootSyntheticVersionFromRegistry(t *testing.T) {
	root := t.TempDir()
	arts := quickArtifacts(t, trace.DatasetGamma22, 7, func(c *experiments.Config) { c.StateKSynthetic = 5 })
	if _, err := registry.WriteVersion(root, registry.Meta{Version: "v1"}, arts); err != nil {
		t.Fatal(err)
	}
	var cfg serve.Config
	served, err := bootFromRegistry(&cfg, root, trace.DatasetGamma22, "")
	if err != nil {
		t.Fatal(err)
	}
	if got, want := served.Record.StateSignal().FeatureDim(), arts.OCSVM.Dim; got != want || served.Record.K != 5 {
		t.Errorf("served U_S feature dim %d under K %d, OC-SVM dim %d, want K 5", got, served.Record.K, want)
	}
	factory, err := serve.NewGuardFactory(served, serve.GuardConfig{})
	if err != nil {
		t.Fatal(err)
	}
	for _, scheme := range factory.Schemes() {
		if _, err := factory.NewGuard(scheme); err != nil {
			t.Errorf("%s: %v", scheme, err)
		}
	}
}
