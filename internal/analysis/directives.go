package analysis

import (
	"go/ast"
	"go/token"
	"strings"
)

// Directive comment prefixes. They follow the Go convention for tool
// directives: no space after "//".
const (
	hotpathDirective       = "//osap:hotpath"
	hotpathStopDirective   = "//osap:hotpath-stop"
	ignoreDirective        = "//osap:ignore"
	guardedByDirective     = "//osap:guardedby"
	deterministicDirective = "//osap:deterministic"
)

// ignoreKey addresses one suppressible source line.
type ignoreKey struct {
	file string
	line int
}

// directiveIndex is the program-wide suppression table, merged across
// every analyzed package (program-level analyzers report into any
// file, so suppression must not stop at package boundaries).
type directiveIndex struct {
	// ignores maps a (file, line) to the set of analyzer names
	// suppressed there.
	ignores map[ignoreKey]map[string]bool
	// stops marks lines carrying //osap:hotpath-stop: call edges on
	// those lines do not propagate hot-path taint, and dynamic-call
	// findings there are suppressed (hotclosure.go).
	stops map[ignoreKey]bool
	// malformed collects diagnostics for unparsable directives.
	malformed []Diagnostic
}

func newDirectiveIndex() *directiveIndex {
	return &directiveIndex{
		ignores: map[ignoreKey]map[string]bool{},
		stops:   map[ignoreKey]bool{},
	}
}

// scanDirectives walks every comment in the package and indexes the
// //osap:ignore and //osap:hotpath-stop directives into idx. A
// directive covers matching diagnostics (or call sites) on its own
// line (trailing-comment form) and on the line directly below
// (standalone-comment form).
func scanDirectives(idx *directiveIndex, pkg *Package) {
	for _, file := range pkg.Files {
		for _, cg := range file.Comments {
			for _, c := range cg.List {
				pos := pkg.Fset.Position(c.Pos())
				switch {
				case strings.HasPrefix(c.Text, ignoreDirective):
					fields := strings.Fields(strings.TrimPrefix(c.Text, ignoreDirective))
					if len(fields) < 2 || !knownAnalyzer(fields[0]) {
						idx.reportMalformed(pos, "malformed //osap:ignore: want \"//osap:ignore <analyzer> <reason>\" with a known analyzer and a non-empty reason")
						continue
					}
					for _, line := range []int{pos.Line, pos.Line + 1} {
						k := ignoreKey{file: pos.Filename, line: line}
						if idx.ignores[k] == nil {
							idx.ignores[k] = map[string]bool{}
						}
						idx.ignores[k][fields[0]] = true
					}
				case strings.HasPrefix(c.Text, hotpathStopDirective):
					if len(strings.Fields(strings.TrimPrefix(c.Text, hotpathStopDirective))) == 0 {
						idx.reportMalformed(pos, "malformed //osap:hotpath-stop: a reason is mandatory (\"//osap:hotpath-stop <reason>\")")
						continue
					}
					for _, line := range []int{pos.Line, pos.Line + 1} {
						idx.stops[ignoreKey{file: pos.Filename, line: line}] = true
					}
				case strings.HasPrefix(c.Text, guardedByDirective):
					// Field-level semantics (sibling lookup, lock-type
					// check) are validated by the guardedby analyzer;
					// here only the shape is checked.
					if len(strings.Fields(strings.TrimPrefix(c.Text, guardedByDirective))) != 1 {
						idx.reportMalformed(pos, "malformed //osap:guardedby: want \"//osap:guardedby <mutex-field>\" naming exactly one sibling lock field")
					}
				}
			}
		}
	}
}

func (idx *directiveIndex) reportMalformed(pos token.Position, msg string) {
	idx.malformed = append(idx.malformed, Diagnostic{
		Analyzer: "directives",
		File:     pos.Filename,
		Line:     pos.Line,
		Col:      pos.Column,
		Message:  msg,
	})
}

// suppressed reports whether d is covered by an //osap:ignore.
func (idx *directiveIndex) suppressed(d Diagnostic) bool {
	return idx.ignores[ignoreKey{file: d.File, line: d.Line}][d.Analyzer]
}

// stoppedAt reports whether (file, line) is covered by an
// //osap:hotpath-stop.
func (idx *directiveIndex) stoppedAt(file string, line int) bool {
	return idx.stops[ignoreKey{file: file, line: line}]
}

// knownAnalyzer reports whether name is in the registered suite, so a
// typo in an ignore directive fails loudly instead of silently
// suppressing nothing.
func knownAnalyzer(name string) bool {
	for _, a := range All() {
		if a.Name == name {
			return true
		}
	}
	return false
}

// isHotpath reports whether fd's doc comment carries //osap:hotpath.
// The match is exact (not a prefix match) so //osap:hotpath-stop in a
// doc comment does not annotate the function.
func isHotpath(fd *ast.FuncDecl) bool {
	if fd.Doc == nil {
		return false
	}
	for _, c := range fd.Doc.List {
		if c.Text == hotpathDirective || strings.HasPrefix(c.Text, hotpathDirective+" ") {
			return true
		}
	}
	return false
}

// hasPragma reports whether fd's doc comment carries the compiler
// pragma line (e.g. "//go:noescape").
func hasPragma(fd *ast.FuncDecl, pragma string) bool {
	if fd.Doc == nil {
		return false
	}
	for _, c := range fd.Doc.List {
		if c.Text == pragma {
			return true
		}
	}
	return false
}

// parseGuardedBy extracts the mutex field name from an
// //osap:guardedby comment ("" if the comment is not a well-formed
// guardedby directive).
func parseGuardedBy(text string) string {
	if !strings.HasPrefix(text, guardedByDirective) {
		return ""
	}
	fields := strings.Fields(strings.TrimPrefix(text, guardedByDirective))
	if len(fields) != 1 {
		return ""
	}
	return fields[0]
}

// isDeterministicPackage reports whether any file comment in the
// package carries //osap:deterministic.
func isDeterministicPackage(pkg *Package) bool {
	for _, file := range pkg.Files {
		for _, cg := range file.Comments {
			for _, c := range cg.List {
				if strings.HasPrefix(c.Text, deterministicDirective) {
					return true
				}
			}
		}
	}
	return false
}
