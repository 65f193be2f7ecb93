package registry_test

import (
	"os"
	"path/filepath"
	"slices"
	"sync"
	"testing"

	"osap/internal/chaos"
	"osap/internal/experiments"
	"osap/internal/registry"
)

var (
	servedOnce sync.Once
	served     *experiments.Artifacts
	servedErr  error
)

// testArtifacts loads the committed paper-scale Norway set osap-serve
// serves, once per test binary; the tests only read it.
func testArtifacts(t *testing.T) *experiments.Artifacts {
	t.Helper()
	servedOnce.Do(func() { served, servedErr = experiments.LoadArtifacts("../../cmd/osap-serve/testdata/norway.json") })
	if servedErr != nil {
		t.Fatal(servedErr)
	}
	return served
}

func TestWriteLoadRoundTrip(t *testing.T) {
	root := t.TempDir()
	arts := testArtifacts(t)
	m, err := registry.WriteVersion(root, registry.Meta{
		Version:   "v1",
		CreatedAt: "2026-08-08T00:00:00Z",
		Notes:     "seed",
	}, arts)
	if err != nil {
		t.Fatalf("WriteVersion: %v", err)
	}
	if m.Version != "v1" || m.Dataset != arts.Dataset || len(m.Files) != 1 {
		t.Fatalf("unexpected manifest: %+v", m)
	}

	reg, err := registry.Open(root)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	vs, err := reg.Versions()
	if err != nil || len(vs) != 1 || vs[0] != "v1" {
		t.Fatalf("Versions = %v, %v; want [v1]", vs, err)
	}
	gen, err := reg.Load("v1", arts.Dataset)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if gen.Artifacts.Dataset != arts.Dataset {
		t.Fatalf("loaded dataset %q, want %q", gen.Artifacts.Dataset, arts.Dataset)
	}
	if len(gen.Artifacts.Agents) != len(arts.Agents) {
		t.Fatalf("loaded %d agents, want %d", len(gen.Artifacts.Agents), len(arts.Agents))
	}
	if gen.ArtifactSHA256 == "" || gen.ArtifactSHA256 != m.Files[arts.Dataset+".json"] {
		t.Fatalf("generation checksum %q does not match manifest", gen.ArtifactSHA256)
	}

	// Lineage chains through Parent.
	if _, err := registry.WriteVersion(root, registry.Meta{Version: "v2", Parent: "v1"}, arts); err != nil {
		t.Fatalf("WriteVersion v2: %v", err)
	}
	m2, err := reg.Manifest("v2")
	if err != nil || m2.Parent != "v1" {
		t.Fatalf("v2 manifest parent = %q, %v; want v1", m2.Parent, err)
	}
}

func TestWriteVersionRejects(t *testing.T) {
	root := t.TempDir()
	arts := testArtifacts(t)
	if _, err := registry.WriteVersion(root, registry.Meta{Version: "v1"}, arts); err != nil {
		t.Fatalf("WriteVersion: %v", err)
	}
	if _, err := registry.WriteVersion(root, registry.Meta{Version: "v1"}, arts); err == nil {
		t.Fatal("duplicate version accepted")
	}
	for _, bad := range []string{"", ".hidden", "a/b", "..", "v 1", "v\x00"} {
		if _, err := registry.WriteVersion(root, registry.Meta{Version: bad}, arts); err == nil {
			t.Errorf("version name %q accepted", bad)
		}
	}
}

func TestVerifyDetectsCorruption(t *testing.T) {
	root := t.TempDir()
	arts := testArtifacts(t)
	if _, err := registry.WriteVersion(root, registry.Meta{Version: "v1"}, arts); err != nil {
		t.Fatalf("WriteVersion: %v", err)
	}
	reg, err := registry.Open(root)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if _, err := reg.Verify("v1"); err != nil {
		t.Fatalf("Verify clean: %v", err)
	}
	path := filepath.Join(root, "v1", arts.Dataset+".json")
	if _, _, err := chaos.CorruptFile(path, 3); err != nil {
		t.Fatalf("CorruptFile: %v", err)
	}
	if _, err := reg.Verify("v1"); err == nil {
		t.Fatal("Verify accepted a corrupted artifact file")
	}
	if _, err := reg.Load("v1", arts.Dataset); err == nil {
		t.Fatal("Load accepted a corrupted artifact file")
	}
}

func TestManifestMismatches(t *testing.T) {
	root := t.TempDir()
	arts := testArtifacts(t)
	if _, err := registry.WriteVersion(root, registry.Meta{Version: "v1"}, arts); err != nil {
		t.Fatalf("WriteVersion: %v", err)
	}
	reg, err := registry.Open(root)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	// Wrong dataset is refused at Load.
	if _, err := reg.Load("v1", "no-such-dataset"); err == nil {
		t.Fatal("Load accepted wrong dataset")
	}
	// A version dir whose manifest claims another version is refused.
	if err := os.Rename(filepath.Join(root, "v1"), filepath.Join(root, "v9")); err != nil {
		t.Fatalf("rename: %v", err)
	}
	if _, err := reg.Manifest("v9"); err == nil {
		t.Fatal("accepted manifest whose version differs from its directory")
	}
}

func TestVersionsSkipsJunk(t *testing.T) {
	root := t.TempDir()
	arts := testArtifacts(t)
	if _, err := registry.WriteVersion(root, registry.Meta{Version: "v1"}, arts); err != nil {
		t.Fatalf("WriteVersion: %v", err)
	}
	// Staging temp dirs, plain files, and manifest-less dirs are all
	// invisible.
	if err := os.MkdirAll(filepath.Join(root, ".tmp-v2"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Join(root, "half-published"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(root, "README"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	reg, err := registry.Open(root)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	vs, err := reg.Versions()
	if err != nil || len(vs) != 1 || vs[0] != "v1" {
		t.Fatalf("Versions = %v, %v; want [v1]", vs, err)
	}
}

// TestPartitionSplitsProposedFromPromoted: every call reads the root,
// so a version published after Open is in the next Partition, on the
// side its manifest names; a version whose manifest does not validate
// is on neither.
func TestPartitionSplitsProposedFromPromoted(t *testing.T) {
	root := t.TempDir()
	arts := testArtifacts(t)
	reg, err := registry.Open(root)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	for _, step := range []struct {
		meta               registry.Meta
		promoted, proposed []string
	}{
		{registry.Meta{Version: "v1"}, []string{"v1"}, nil},
		{registry.Meta{Version: "v2", Parent: "v1"}, []string{"v1", "v2"}, nil},
		{registry.Meta{Version: "v2-refit-001", Parent: "v2", Proposed: true}, []string{"v1", "v2"}, []string{"v2-refit-001"}},
	} {
		if _, err := registry.WriteVersion(root, step.meta, arts); err != nil {
			t.Fatalf("WriteVersion %s: %v", step.meta.Version, err)
		}
		promoted, proposed, err := reg.Partition()
		if err != nil {
			t.Fatalf("Partition: %v", err)
		}
		if !slices.Equal(promoted, step.promoted) || !slices.Equal(proposed, step.proposed) {
			t.Fatalf("after %s: Partition = %v, %v; want %v, %v", step.meta.Version, promoted, proposed, step.promoted, step.proposed)
		}
	}
	if err := os.WriteFile(filepath.Join(root, "v2", registry.ManifestName), []byte("{}"), 0o644); err != nil {
		t.Fatal(err)
	}
	if promoted, _, err := reg.Partition(); err != nil || !slices.Equal(promoted, []string{"v1"}) {
		t.Fatalf("with v2's manifest broken: promoted = %v, %v; want [v1]", promoted, err)
	}

	// The Proposed flag must survive the manifest round trip.
	man, err := reg.Manifest("v2-refit-001")
	if err != nil {
		t.Fatalf("Manifest: %v", err)
	}
	if !man.Proposed {
		t.Fatal("proposal manifest lost its Proposed flag")
	}
}
