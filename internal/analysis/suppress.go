package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"strings"
)

// allowEntry is one //lemonvet:allow comment.
type allowEntry struct {
	name string // canonical analyzer name, "" when the written name is unknown
	raw  string // analyzer name as written
	pos  token.Position
	used bool // covered at least one finding this run
}

// allowSet records, per file and line, which analyzers are suppressed
// there, and tracks which allow comments actually fired so stale ones can
// be reported. A finding is covered when an allow comment for its analyzer
// sits on the finding's own line (trailing comment) or on the line
// directly above it.
type allowSet struct {
	byLine map[string]map[int][]*allowEntry
	order  []*allowEntry
}

// allowAliases maps shorthand names accepted in //lemonvet:allow comments to
// canonical analyzer names.
var allowAliases = map[string]string{
	"panic": "panicpolicy",
}

// collectAllows gathers the allow comments of every package into one set,
// so a finding in any package resolves against it.
func collectAllows(pkgs []*Package) *allowSet {
	set := &allowSet{byLine: make(map[string]map[int][]*allowEntry)}
	for _, pkg := range pkgs {
		set.add(pkg.Fset, pkg.Files)
	}
	return set
}

func (s *allowSet) add(fset *token.FileSet, files []*ast.File) {
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text, ok := strings.CutPrefix(c.Text, "//lemonvet:allow")
				if !ok {
					continue
				}
				fields := strings.Fields(text)
				if len(fields) == 0 {
					continue
				}
				raw := fields[0]
				name := raw
				if canon, ok := allowAliases[name]; ok {
					name = canon
				}
				if ByName(name) == nil {
					name = ""
				}
				entry := &allowEntry{name: name, raw: raw, pos: fset.Position(c.Pos())}
				byLine := s.byLine[entry.pos.Filename]
				if byLine == nil {
					byLine = make(map[int][]*allowEntry)
					s.byLine[entry.pos.Filename] = byLine
				}
				byLine[entry.pos.Line] = append(byLine[entry.pos.Line], entry)
				s.order = append(s.order, entry)
			}
		}
	}
}

func (s *allowSet) covers(f Finding) bool {
	byLine := s.byLine[f.Pos.Filename]
	if byLine == nil {
		return false
	}
	covered := false
	for _, line := range []int{f.Pos.Line, f.Pos.Line - 1} {
		for _, entry := range byLine[line] {
			if entry.name == f.Analyzer {
				entry.used = true
				covered = true
			}
		}
	}
	return covered
}

// stale returns one Finding (Analyzer "suppress") per allow comment that
// suppressed nothing in this run, or that names no known analyzer. Call it
// only after every covers() query of the run.
func (s *allowSet) stale() []Finding {
	var out []Finding
	for _, entry := range s.order {
		switch {
		case entry.name == "":
			out = append(out, Finding{
				Analyzer: "suppress",
				Pos:      entry.pos,
				Message:  fmt.Sprintf("//lemonvet:allow names unknown analyzer %q", entry.raw),
			})
		case !entry.used:
			out = append(out, Finding{
				Analyzer: "suppress",
				Pos:      entry.pos,
				Message:  fmt.Sprintf("stale //lemonvet:allow %s: it suppresses no finding; delete it", entry.raw),
			})
		}
	}
	sortFindings(out)
	return out
}
