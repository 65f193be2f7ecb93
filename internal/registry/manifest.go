// Package registry is the versioned artifact store behind hot-reload
// and canary rollout (DESIGN.md §11). Each version is a directory
// `<root>/<version>/` holding a manifest.json plus the checksummed
// osap-artifacts/v3 file(s) it names; the manifest records per-file
// SHA-256s and lineage (parent version), so a registry is a
// content-verified, append-only history of trained artifact sets.
//
// Publication is atomic: WriteVersion stages into a dot-prefixed temp
// directory and renames it into place, so a reader listing the root
// never observes a half-written version. The package itself never
// reads the wall clock — CreatedAt stamps are supplied by callers —
// and is listed in osap-vet's nondeterminism analyzer.
package registry

import (
	"encoding/json"
	"fmt"
	"sort"
)

// ManifestFormat names the manifest envelope; bump on layout changes.
const ManifestFormat = "osap-registry/v1"

// ManifestName is the manifest's filename inside a version directory.
const ManifestName = "manifest.json"

// Manifest describes one published version: which files it contains
// (with their SHA-256s), which dataset the artifacts serve, and where
// the version came from.
type Manifest struct {
	Format  string `json:"format"`
	Version string `json:"version"`
	Dataset string `json:"dataset"`
	// CreatedAt is an informational RFC3339 stamp supplied by the
	// publisher; the registry never reads the clock itself.
	CreatedAt string `json:"created_at,omitempty"`
	// Parent is the version this one was trained or derived from
	// ("" for a root version); it forms the lineage chain.
	Parent string `json:"parent,omitempty"`
	Notes  string `json:"notes,omitempty"`
	// Proposed marks a version published by the online learner
	// (DESIGN.md §14) that has NOT been promoted: proposed versions
	// are never picked as a boot default and are surfaced separately
	// on /dashboard; staging one through the canary rollout is the
	// only way it ever serves.
	Proposed bool `json:"proposed,omitempty"`
	// Files maps artifact filename (no path separators) to the hex
	// SHA-256 of the file's exact bytes.
	Files map[string]string `json:"files"`
}

// ValidVersion reports whether name is usable as a version directory:
// non-empty, no path separators, not dot-prefixed (dot-prefixed names
// are reserved for staging temp dirs).
func ValidVersion(name string) bool {
	if name == "" || len(name) > 128 || name[0] == '.' {
		return false
	}
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9':
		case c == '.' || c == '_' || c == '-':
		default:
			return false
		}
	}
	return true
}

// validFileName accepts plain filenames only — a manifest must not be
// able to address files outside its own version directory.
func validFileName(name string) bool {
	if name == "" || len(name) > 255 || name[0] == '.' {
		return false
	}
	for i := 0; i < len(name); i++ {
		switch name[i] {
		case '/', '\\', 0:
			return false
		}
	}
	return true
}

// isHexSHA256 reports whether s is a 64-char lowercase hex digest.
func isHexSHA256(s string) bool {
	if len(s) != 64 {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// Validate checks internal consistency: format, version and file
// names, and digest shapes. It does not touch the filesystem.
func (m *Manifest) Validate() error {
	if m.Format != ManifestFormat {
		return fmt.Errorf("registry: manifest format %q, want %q", m.Format, ManifestFormat)
	}
	if !ValidVersion(m.Version) {
		return fmt.Errorf("registry: invalid version name %q", m.Version)
	}
	if m.Parent != "" && !ValidVersion(m.Parent) {
		return fmt.Errorf("registry: invalid parent version %q", m.Parent)
	}
	if m.Dataset == "" {
		return fmt.Errorf("registry: manifest %s: missing dataset", m.Version)
	}
	if len(m.Files) == 0 {
		return fmt.Errorf("registry: manifest %s: no files", m.Version)
	}
	for _, name := range m.FileNames() {
		if !validFileName(name) {
			return fmt.Errorf("registry: manifest %s: invalid file name %q", m.Version, name)
		}
		if sum := m.Files[name]; !isHexSHA256(sum) {
			return fmt.Errorf("registry: manifest %s: file %s: malformed sha256 %q", m.Version, name, sum)
		}
	}
	return nil
}

// FileNames returns the manifest's file names in sorted order, so
// every walk over the file set is deterministic.
func (m *Manifest) FileNames() []string {
	names := make([]string, len(m.Files))
	i := 0
	for name := range m.Files {
		names[i] = name
		i++
	}
	sort.Strings(names)
	return names
}

// ParseManifest decodes and validates a manifest document.
func ParseManifest(data []byte) (*Manifest, error) {
	var m Manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("registry: decode manifest: %w", err)
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return &m, nil
}

// Encode renders the manifest as indented JSON (stable key order via
// encoding/json's struct + sorted-map encoding).
func (m *Manifest) Encode() ([]byte, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("registry: encode manifest: %w", err)
	}
	return append(data, '\n'), nil
}
