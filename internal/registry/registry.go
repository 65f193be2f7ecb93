package registry

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"osap/internal/experiments"
)

// Generation is one fully loaded, checksum-verified version: the
// binding a session acquires at admission and keeps until it ends.
type Generation struct {
	Version  string
	Dir      string
	Manifest *Manifest
	// Artifacts is the loaded, envelope-verified artifact set.
	Artifacts *experiments.Artifacts
	// ArtifactSHA256 is the manifest digest of the artifact file the
	// generation was loaded from — the identity exported on /metrics.
	ArtifactSHA256 string
}

// Registry reads versions from a root directory. It is stateless
// beyond the root path: every call re-reads the filesystem, so a
// rename-published version is visible on the next call.
type Registry struct {
	root string
}

// Open validates that root exists and is a directory.
func Open(root string) (*Registry, error) {
	fi, err := os.Stat(root)
	if err != nil {
		return nil, fmt.Errorf("registry: open %s: %w", root, err)
	}
	if !fi.IsDir() {
		return nil, fmt.Errorf("registry: open %s: not a directory", root)
	}
	return &Registry{root: root}, nil
}

// Versions lists published version names in sorted order. Staging
// temp dirs (dot-prefixed) and stray files are skipped.
func (r *Registry) Versions() ([]string, error) {
	entries, err := os.ReadDir(r.root)
	if err != nil {
		return nil, fmt.Errorf("registry: list %s: %w", r.root, err)
	}
	var out []string
	for _, e := range entries {
		if !e.IsDir() || !ValidVersion(e.Name()) {
			continue
		}
		if _, err := os.Stat(filepath.Join(r.root, e.Name(), ManifestName)); err != nil {
			continue // not a published version (no manifest)
		}
		out = append(out, e.Name())
	}
	sort.Strings(out)
	return out, nil
}

// Partition splits the registry's versions into promoted (eligible as
// a boot/serving default) and proposed (online-learning refits
// awaiting canary promotion), each in sorted order. Versions whose
// manifest cannot be read or validated are omitted from both lists —
// a version the registry cannot vouch for must not be offered for
// serving.
func (r *Registry) Partition() (promoted, proposed []string, err error) {
	all, err := r.Versions()
	if err != nil {
		return nil, nil, err
	}
	for _, v := range all {
		m, err := r.Manifest(v)
		if err != nil {
			continue
		}
		if m.Proposed {
			proposed = append(proposed, v)
		} else {
			promoted = append(promoted, v)
		}
	}
	return promoted, proposed, nil
}

// Manifest reads and validates one version's manifest.
func (r *Registry) Manifest(version string) (*Manifest, error) {
	if !ValidVersion(version) {
		return nil, fmt.Errorf("registry: invalid version name %q", version)
	}
	data, err := os.ReadFile(filepath.Join(r.root, version, ManifestName))
	if err != nil {
		return nil, fmt.Errorf("registry: version %s: %w", version, err)
	}
	m, err := ParseManifest(data)
	if err != nil {
		return nil, fmt.Errorf("registry: version %s: %w", version, err)
	}
	if m.Version != version {
		return nil, fmt.Errorf("registry: version dir %s holds manifest for %q", version, m.Version)
	}
	return m, nil
}

// Verify re-hashes every file the manifest names and compares against
// the recorded digests, in sorted file order. It returns the manifest
// on success so callers can chain into a load.
func (r *Registry) Verify(version string) (*Manifest, error) {
	m, err := r.Manifest(version)
	if err != nil {
		return nil, err
	}
	dir := filepath.Join(r.root, version)
	for _, name := range m.FileNames() {
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			return nil, fmt.Errorf("registry: version %s: %w", version, err)
		}
		sum := sha256.Sum256(data)
		if got := hex.EncodeToString(sum[:]); got != m.Files[name] {
			return nil, fmt.Errorf("registry: version %s: file %s corrupted: sha256 %s does not match manifest %s",
				version, name, got, m.Files[name])
		}
	}
	return m, nil
}

// artifactFile picks the manifest file holding dataset's artifacts:
// "<dataset>.json" exactly, or the sole .json file when only one is
// listed.
func artifactFile(m *Manifest, dataset string) (string, error) {
	want := dataset + ".json"
	if _, ok := m.Files[want]; ok {
		return want, nil
	}
	var jsons []string
	for _, name := range m.FileNames() {
		if strings.HasSuffix(name, ".json") {
			jsons = append(jsons, name)
		}
	}
	if len(jsons) == 1 {
		return jsons[0], nil
	}
	return "", fmt.Errorf("registry: version %s: no artifact file for dataset %q among %v", m.Version, dataset, m.FileNames())
}

// Load verifies a version end to end — manifest digests, then the
// artifact envelope's own checksum — and returns the bound
// Generation. dataset selects the artifact file when a version
// carries several; "" accepts a single-artifact version.
func (r *Registry) Load(version, dataset string) (*Generation, error) {
	m, err := r.Verify(version)
	if err != nil {
		return nil, err
	}
	if dataset != "" && m.Dataset != dataset {
		return nil, fmt.Errorf("registry: version %s serves dataset %q, want %q", version, m.Dataset, dataset)
	}
	name, err := artifactFile(m, m.Dataset)
	if err != nil {
		return nil, err
	}
	dir := filepath.Join(r.root, version)
	arts, err := experiments.LoadArtifacts(filepath.Join(dir, name))
	if err != nil {
		return nil, fmt.Errorf("registry: version %s: %w", version, err)
	}
	return &Generation{
		Version:        version,
		Dir:            dir,
		Manifest:       m,
		Artifacts:      arts,
		ArtifactSHA256: m.Files[name],
	}, nil
}

// Meta carries publisher-supplied manifest fields for WriteVersion.
// CreatedAt (RFC3339) comes from the caller: the registry itself
// never reads the clock.
type Meta struct {
	Version   string
	Parent    string
	CreatedAt string
	Notes     string
	// Proposed marks the version as an unpromoted online-learning
	// proposal (see Manifest.Proposed).
	Proposed bool
}

// WriteVersion publishes an artifact set as a new version: artifacts
// and manifest are staged into a dot-prefixed temp directory, synced
// to disk with it, then renamed into place in one atomic step, so
// concurrent readers (and the poll Watcher) never see a partial
// version; root is synced before it returns, so a version it returned
// survives a crash. Publishing an existing version name fails.
func WriteVersion(root string, meta Meta, arts *experiments.Artifacts) (*Manifest, error) {
	if !ValidVersion(meta.Version) {
		return nil, fmt.Errorf("registry: invalid version name %q", meta.Version)
	}
	if meta.Parent != "" && !ValidVersion(meta.Parent) {
		return nil, fmt.Errorf("registry: invalid parent version %q", meta.Parent)
	}
	if err := os.MkdirAll(root, 0o755); err != nil {
		return nil, fmt.Errorf("registry: write version: %w", err)
	}
	final := filepath.Join(root, meta.Version)
	if _, err := os.Stat(final); err == nil {
		return nil, fmt.Errorf("registry: version %s already exists", meta.Version)
	}
	tmp := filepath.Join(root, ".tmp-"+meta.Version)
	if err := os.RemoveAll(tmp); err != nil {
		return nil, fmt.Errorf("registry: write version: %w", err)
	}
	path, err := experiments.SaveArtifacts(tmp, arts)
	if err != nil {
		os.RemoveAll(tmp) //nolint:errcheck // best-effort cleanup
		return nil, err
	}
	data, err := os.ReadFile(path)
	if err != nil {
		os.RemoveAll(tmp) //nolint:errcheck // best-effort cleanup
		return nil, fmt.Errorf("registry: write version: %w", err)
	}
	sum := sha256.Sum256(data)
	m := &Manifest{
		Format:    ManifestFormat,
		Version:   meta.Version,
		Dataset:   arts.Dataset,
		CreatedAt: meta.CreatedAt,
		Parent:    meta.Parent,
		Notes:     meta.Notes,
		Proposed:  meta.Proposed,
		Files:     map[string]string{filepath.Base(path): hex.EncodeToString(sum[:])},
	}
	enc, err := m.Encode()
	if err != nil {
		os.RemoveAll(tmp) //nolint:errcheck // best-effort cleanup
		return nil, err
	}
	if err := experiments.WriteSynced(filepath.Join(tmp, ManifestName), enc); err != nil {
		os.RemoveAll(tmp) //nolint:errcheck // best-effort cleanup
		return nil, fmt.Errorf("registry: write manifest: %w", err)
	}
	// The staging directory's entries are made durable before the rename
	// publishes it: a crash after the rename then leaves the version
	// with its artifact file and its manifest, never an empty manifest
	// that hides the version while its name stays taken.
	if err := syncDir(tmp); err != nil {
		os.RemoveAll(tmp) //nolint:errcheck // best-effort cleanup
		return nil, fmt.Errorf("registry: sync %s: %w", tmp, err)
	}
	if err := os.Rename(tmp, final); err != nil {
		os.RemoveAll(tmp) //nolint:errcheck // best-effort cleanup
		return nil, fmt.Errorf("registry: publish %s: %w", meta.Version, err)
	}
	// The rename is an entry of root: only once root is synced does a
	// crash keep the version its caller is about to report as published.
	if err := syncDir(root); err != nil {
		return nil, fmt.Errorf("registry: sync %s: %w", root, err)
	}
	return m, nil
}

// syncDir fsyncs a directory, making the entries created in it durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}
