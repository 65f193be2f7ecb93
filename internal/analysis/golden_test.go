package analysis

import (
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden files")

// fixtures maps each fixture under testdata/src, in golden order, to
// the analyzer whose findings and suppressions it pins. Every analyzer
// in All() has one (TestEveryAnalyzerHasAFixture).
var fixtures = []struct{ name, analyzer string }{
	{"hotpath", "hotpath-alloc"},
	{"hotclosure", "hotpath-closure"},
	{"atomicalign", "atomic-typed"},
	{"atomicmixed", "atomic-typed"},
	{"guardedby", "guardedby"},
	{"nondet", "nondeterminism"},
	{"deadcode", "deadcode"},
}

// loadFixture loads one fixture package. A fixture with its own go.mod
// is a module and loads whole (./... from its directory), the only
// load the deadcode analyzer reports on.
func loadFixture(t *testing.T, name string) []*Package {
	t.Helper()
	dir := filepath.Join("testdata", "src", name)
	var pkgs []*Package
	var err error
	if _, statErr := os.Stat(filepath.Join(dir, "go.mod")); statErr == nil {
		pkgs, err = Load(dir, "./...")
	} else {
		pkgs, err = Load(".", "./"+filepath.ToSlash(dir))
	}
	if err != nil {
		t.Fatalf("load fixture %s: %v", name, err)
	}
	return pkgs
}

// TestEveryAnalyzerHasAFixture fails when an analyzer ships without a
// golden fixture.
func TestEveryAnalyzerHasAFixture(t *testing.T) {
	have := map[string]bool{}
	for _, f := range fixtures {
		have[f.analyzer] = true
	}
	for _, a := range All() {
		if !have[a.Name] {
			t.Errorf("analyzer %s has no fixture in testdata/src and no golden", a.Name)
		}
	}
}

// TestGolden runs the full analyzer suite over each fixture package
// and compares the findings against testdata/<name>.golden. Every
// fixture seeds true violations and at least one //osap:ignore, so a
// matching golden proves both detection and suppression.
func TestGolden(t *testing.T) {
	for _, f := range fixtures {
		name := f.name
		t.Run(name, func(t *testing.T) {
			diags := Run(loadFixture(t, name), All())

			cwd, err := os.Getwd()
			if err != nil {
				t.Fatal(err)
			}
			var b strings.Builder
			for _, d := range diags {
				rel, err := filepath.Rel(cwd, d.File)
				if err != nil {
					rel = d.File
				}
				d.File = filepath.ToSlash(rel)
				b.WriteString(d.String())
				b.WriteByte('\n')
			}
			got := b.String()

			goldenPath := filepath.Join("testdata", name+".golden")
			if *update {
				if err := os.WriteFile(goldenPath, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(goldenPath)
			if err != nil {
				t.Fatalf("read golden (run with -update to create): %v", err)
			}
			if got != string(want) {
				t.Errorf("findings mismatch\n--- got ---\n%s--- want ---\n%s", got, want)
			}
		})
	}
}

// TestGoldenHasFindingsAndSuppressions sanity-checks the fixtures
// themselves: each golden must contain its analyzer's findings, and
// each fixture must exercise at least one suppression (a finding that
// would appear without directives but does not).
func TestGoldenHasFindingsAndSuppressions(t *testing.T) {
	for _, f := range fixtures {
		name, analyzer := f.name, f.analyzer
		pkgs := loadFixture(t, name)
		withIgnores := Run(pkgs, All())
		count := 0
		for _, d := range withIgnores {
			if d.Analyzer == analyzer {
				count++
			}
		}
		if count == 0 {
			t.Errorf("%s: expected %s findings, got none", name, analyzer)
		}

		// Re-run with suppression disabled by counting raw reports.
		raw := 0
		for _, a := range All() {
			if a.Name != analyzer {
				continue
			}
			var diags []Diagnostic
			a.Run(&Pass{Analyzer: a, Prog: NewProgram(pkgs), diags: &diags})
			raw += len(diags)
		}
		if raw <= count {
			t.Errorf("%s: expected at least one suppressed %s finding (raw %d, surviving %d)", name, analyzer, raw, count)
		}
	}
}

// TestGoVetCopiesLocks pins go vet's copylocks check, the lint gate's
// lock-copy rule, on the mutexcopy fixture: a range copy, a copy
// through a dereference, a by-value parameter and a by-value receiver,
// each reported at its position, and nothing for a fresh value
// returned by value.
func TestGoVetCopiesLocks(t *testing.T) {
	out, err := exec.Command("go", "vet", "-copylocks", "./testdata/src/mutexcopy").CombinedOutput()
	if err == nil {
		t.Fatalf("go vet -copylocks passed the mutexcopy fixture:\n%s", out)
	}
	var got []string
	for _, line := range strings.Split(string(out), "\n") {
		if _, rest, ok := strings.Cut(line, "mutexcopy.go:"); ok {
			pos := strings.SplitN(rest, ":", 3)
			got = append(got, pos[0]+":"+pos[1])
		}
	}
	want := []string{"19:9", "39:11", "44:13", "47:9", "52:15"}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Errorf("go vet -copylocks reported %v, want %v\n%s", got, want, out)
	}
}

// TestMalformedIgnoreDirective checks that a bad directive surfaces as
// a "directives" diagnostic instead of silently suppressing nothing.
func TestMalformedIgnoreDirective(t *testing.T) {
	pkgs, err := Load(".", "./testdata/src/baddirective")
	if err != nil {
		t.Fatalf("load fixture: %v", err)
	}
	diags := Run(pkgs, All())
	foundMalformed := false
	foundSurviving := false
	for _, d := range diags {
		if d.Analyzer == "directives" {
			foundMalformed = true
		}
		if d.Analyzer == "nondeterminism" {
			foundSurviving = true
		}
	}
	if !foundMalformed {
		t.Error("expected a directives diagnostic for the malformed //osap:ignore")
	}
	if !foundSurviving {
		t.Error("expected the malformed ignore NOT to suppress the real finding")
	}
}

// TestDeadcodeNeedsWholeModule pins that deadcode stays silent on a
// load that cannot see every caller: one package of the fixture module,
// and one package of this module.
func TestDeadcodeNeedsWholeModule(t *testing.T) {
	for _, load := range []struct{ dir, pattern string }{
		{filepath.Join("testdata", "src", "deadcode"), "./shapes"},
		{filepath.Join("testdata", "src", "deadcode"), "."},
		{filepath.Join("..", ".."), "./internal/core"},
	} {
		pkgs, err := Load(load.dir, load.pattern)
		if err != nil {
			t.Fatalf("load %s in %s: %v", load.pattern, load.dir, err)
		}
		if diags := Run(pkgs, []*Analyzer{DeadCode}); len(diags) != 0 {
			t.Errorf("load %s in %s: deadcode reported %d findings, want none: %v", load.pattern, load.dir, len(diags), diags)
		}
	}
}
