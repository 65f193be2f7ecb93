package main

import (
	"encoding/json"
	"os/exec"
	"strings"
	"testing"

	"osap/internal/analysis"
)

// TestRepoIsClean is the dogfooding gate: the analyzer suite over the
// whole module (testdata fixtures excluded by ./... expansion) must
// come back empty, mirroring `make lint`.
func TestRepoIsClean(t *testing.T) {
	var b strings.Builder
	code, err := run(&b, "../..", false, false, "", []string{"./..."})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if code != 0 {
		t.Fatalf("osap-vet ./... found violations:\n%s", b.String())
	}
}

// TestRepoCopiesNoLocks runs go vet's copylocks check, the lock-copy
// rule of `make lint`, over the whole module: no value holding a sync
// lock or a typed atomic may be copied.
func TestRepoCopiesNoLocks(t *testing.T) {
	cmd := exec.Command("go", "vet", "-copylocks", "./...")
	cmd.Dir = "../.."
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go vet -copylocks ./...: %v\n%s", err, out)
	}
}

// TestJSONOutput smoke-tests -json over a fixture with seeded
// violations: exit code 1 and a parseable, non-empty findings array.
func TestJSONOutput(t *testing.T) {
	var b strings.Builder
	code, err := run(&b, "../..", true, false, "", []string{"./internal/analysis/testdata/src/hotpath"})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if code != 1 {
		t.Fatalf("exit code = %d, want 1 (seeded violations)", code)
	}
	var diags []analysis.Diagnostic
	if err := json.Unmarshal([]byte(b.String()), &diags); err != nil {
		t.Fatalf("output is not valid JSON: %v\n%s", err, b.String())
	}
	if len(diags) == 0 {
		t.Fatal("expected findings in the hotpath fixture")
	}
	for _, d := range diags {
		if d.Analyzer == "" || d.File == "" || d.Line == 0 {
			t.Errorf("incomplete diagnostic: %+v", d)
		}
	}
}

// TestJSONCleanIsEmptyArray pins the contract that a clean run emits
// [] rather than null.
func TestJSONCleanIsEmptyArray(t *testing.T) {
	var b strings.Builder
	code, err := run(&b, "../..", true, false, "", []string{"./internal/buildinfo"})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if code != 0 {
		t.Fatalf("exit code = %d, want 0:\n%s", code, b.String())
	}
	if got := strings.TrimSpace(b.String()); got != "[]" {
		t.Fatalf("clean -json output = %q, want []", got)
	}
}
