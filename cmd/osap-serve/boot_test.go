package main

import (
	"testing"

	"osap/internal/registry"
	"osap/internal/serve"
	"osap/internal/trace"
)

// TestBootSyntheticVersionFromRegistry: the U_S window is the served
// artifact's record, so a synthetic-dataset version whose OC-SVM was
// fit with the default k = 5 boots and serves ND through the production
// -registry path, whatever window the quick-scale lab would pick for
// the dataset's name.
func TestBootSyntheticVersionFromRegistry(t *testing.T) {
	root := t.TempDir()
	arts, err := serve.SyntheticArtifacts(trace.DatasetGamma22, 3, 7)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := registry.WriteVersion(root, registry.Meta{Version: "v1"}, arts); err != nil {
		t.Fatal(err)
	}
	var cfg serve.Config
	_, served, err := bootFromRegistry(&cfg, root, trace.DatasetGamma22, "")
	if err != nil {
		t.Fatal(err)
	}
	if got, want := served.Record.StateSignal().FeatureDim(), arts.OCSVM.Dim; got != want {
		t.Errorf("served U_S feature dim %d, OC-SVM dim %d", got, want)
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
