// Package analysis implements lemonvet, the repo-specific static-analysis
// suite that machine-checks the determinism contract documented in
// internal/rng and DESIGN.md: simulation code draws randomness only from an
// explicit *rng.RNG, never from math/rand or the wall clock, never shares a
// generator across goroutines, never compares computed floats for equality,
// and surfaces failures as errors rather than panics.
//
// The suite is built on the standard library only (go/parser, go/ast,
// go/types, go/importer); packages are located and their dependency export
// data produced by shelling out to `go list -export`, so no module download
// or golang.org/x/tools dependency is required.
//
// Every analyzer runs over one Program: the loaded packages connected by a
// call graph. The per-package checks (nodeterminism, rngcapture, floateq,
// panicpolicy, errcheck) read one package at a time; the whole-program ones
// (guardedby, lockorder, logahead, ctxflow) follow calls across packages.
// Which findings count in which package is one table, analyzersFor.
//
// Findings can be suppressed with a trailing or immediately-preceding
// comment of the form:
//
//	//lemonvet:allow <analyzer> <reason>
//
// where <analyzer> is the analyzer name (the alias "panic" is accepted for
// "panicpolicy"). The reason is mandatory by convention and shows up in
// code review; lemonvet only checks that the analyzer name matches.
package analysis

import (
	"fmt"
	"go/token"
	"sort"
)

// Finding is one diagnostic produced by an analyzer.
type Finding struct {
	Analyzer string         `json:"analyzer"`
	Pos      token.Position `json:"pos"`
	Message  string         `json:"message"`
}

func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", f.Pos.Filename, f.Pos.Line, f.Pos.Column, f.Analyzer, f.Message)
}

// Pass carries the loaded program through an analyzer.
type Pass struct {
	Prog *Program

	findings []Finding
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(analyzer string, pos token.Pos, format string, args ...interface{}) {
	p.findings = append(p.findings, Finding{
		Analyzer: analyzer,
		Pos:      p.Prog.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// Analyzer is one lemonvet check.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass)
}

// perPackage builds the Run of a check that reads one package at a time.
func perPackage(check func(*Pass, *Package)) func(*Pass) {
	return func(p *Pass) {
		for _, pkg := range p.Prog.Pkgs {
			check(p, pkg)
		}
	}
}

// All returns every analyzer in the suite, in stable order.
func All() []*Analyzer {
	return []*Analyzer{
		NoDeterminism,
		RNGCapture,
		FloatEq,
		PanicPolicy,
		ErrCheck,
		GuardedBy,
		LockOrder,
		LogAhead,
		CtxFlow,
	}
}

// ByName returns the analyzer with the given name, or nil.
func ByName(name string) *Analyzer {
	for _, a := range All() {
		if a.Name == name {
			return a
		}
	}
	return nil
}

// RunResult is what a lemonvet run over a package tree produces.
type RunResult struct {
	// Findings are the unsuppressed findings, sorted by position.
	Findings []Finding
	// Suppressed counts findings covered by //lemonvet:allow comments.
	Suppressed int
	// Stale reports allow comments that suppressed nothing (or name no
	// known analyzer); each is rendered as a Finding with Analyzer
	// "suppress". Only -strict-suppress treats these as failures.
	Stale []Finding
	// Packages is how many packages were analyzed.
	Packages int
}

// Check runs the given analyzers over a set of loaded packages (typically
// a fixture tree) and returns the unsuppressed findings sorted by position
// plus the suppressed count. Unlike Run it applies no per-package
// applicability rules: fixtures opt in explicitly.
func Check(pkgs []*Package, analyzers []*Analyzer) (findings []Finding, suppressed int) {
	res := check(pkgs, analyzers, false)
	return res.Findings, res.Suppressed
}

// Run is the lemonvet driver: it runs every analyzer over the program,
// keeps each finding only if analyzersFor applies its analyzer to the
// package it lands in, resolves suppressions across the whole tree, and
// reports stale allow comments.
func Run(pkgs []*Package) RunResult {
	res := check(pkgs, All(), true)
	for _, pkg := range pkgs {
		if !isTestdata(pkg.ImportPath) {
			res.Packages++
		}
	}
	return res
}

// check runs analyzers over the program pkgs form and resolves the
// findings against the tree's allow comments; with applicability set it
// first drops the findings analyzersFor does not apply where they land.
func check(pkgs []*Package, analyzers []*Analyzer, applicability bool) RunResult {
	pass := &Pass{Prog: BuildProgram(pkgs)}
	for _, a := range analyzers {
		a.Run(pass)
	}
	// applies maps each file to the analyzers whose findings count there.
	var applies map[string]map[string]bool
	if applicability {
		applies = make(map[string]map[string]bool)
		for _, pkg := range pkgs {
			names := make(map[string]bool)
			for _, a := range analyzersFor(pkg.ImportPath, pkg.Types.Name()) {
				names[a.Name] = true
			}
			for _, file := range pkg.Files {
				applies[pkg.Fset.Position(file.FileStart).Filename] = names
			}
		}
	}
	var res RunResult
	allow := collectAllows(pkgs)
	for _, f := range pass.findings {
		if applies != nil && !applies[f.Pos.Filename][f.Analyzer] {
			continue
		}
		if allow.covers(f) {
			res.Suppressed++
			continue
		}
		res.Findings = append(res.Findings, f)
	}
	sortFindings(res.Findings)
	res.Stale = allow.stale()
	return res
}

func sortFindings(findings []Finding) {
	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i].Pos, findings[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Column != b.Column {
			return a.Column < b.Column
		}
		if findings[i].Analyzer != findings[j].Analyzer {
			return findings[i].Analyzer < findings[j].Analyzer
		}
		return findings[i].Message < findings[j].Message
	})
}
