package analysis

import "strings"

// Analyzer applicability is a property of the package's role, not of the
// analyzer: the analyzers themselves flag every occurrence and stay
// path-agnostic, which keeps their fixture tests simple, and the driver
// keeps a finding only where the table below applies its analyzer.

// commandPrefix marks top-level commands. Commands are exempt from the
// panic policy (main may crash on fatal errors) and from the determinism
// rules (a CLI may legitimately time itself or shuffle output order; it
// must pass explicit seeds *into* the library, which the library-side
// checks enforce).
const commandPrefix = "/cmd/"

func isTestdata(importPath string) bool {
	return strings.Contains(importPath, "/testdata/")
}

// analyzersFor returns the analyzers whose findings lemonvet reports in the
// package with the given import path and package name. The analyzers run
// over the whole program (the call graph does not stop at package
// boundaries); this table only decides which packages' findings count:
//
//   - testdata packages get nothing: fixtures are analyzed explicitly by
//     their tests.
//   - nodeterminism and panicpolicy skip cmd/ packages only; examples/*
//     are package main but stay checked.
//   - ctxflow applies to library packages only: package main and cmd/ may
//     root context trees with context.Background().
//   - logahead applies only to the wear-accounting core (registry, wal):
//     that is where DESIGN.md §8's log-ahead rule is binding. Other
//     packages (bench, figures) exercise architectures that were never
//     provisioned durably.
//   - rngcapture, floateq, errcheck, guardedby and lockorder apply
//     everywhere: lock discipline has no exemptions.
func analyzersFor(importPath, pkgName string) []*Analyzer {
	if isTestdata(importPath) {
		return nil
	}
	isCommand := strings.Contains(importPath, commandPrefix)
	var out []*Analyzer
	for _, a := range All() {
		switch a {
		case NoDeterminism, PanicPolicy:
			if isCommand {
				continue
			}
		case CtxFlow:
			if isCommand || pkgName == "main" {
				continue
			}
		case LogAhead:
			if !strings.Contains(importPath, "/registry") && !strings.Contains(importPath, "/wal") {
				continue
			}
		}
		out = append(out, a)
	}
	return out
}
