// Command lemonvet runs the repo-specific static-analysis suite from
// internal/analysis over the given packages (default ./...). Every pass
// runs on one engine over the loaded program and its stdlib-only call
// graph: the five determinism passes read one package at a time, and the
// concurrency and durability passes (guardedby, lockorder, logahead,
// ctxflow) follow calls across packages. One table decides in which
// packages each pass's findings count.
//
// Usage:
//
//	go run ./cmd/lemonvet [-json] [-strict-suppress] [packages...]
//
// It exits 0 when every check passes, 1 when there are unsuppressed
// findings (or, with -strict-suppress, stale //lemonvet:allow comments),
// and 2 when the packages cannot be loaded (parse or type errors).
// Findings print as file:line:col: [analyzer] message, or as a JSON array
// with -json. Suppress an individual finding with a trailing or
// immediately-preceding comment:
//
//	//lemonvet:allow <analyzer> <reason>
//
// -strict-suppress additionally fails the run when an allow comment
// suppresses nothing (stale) or names an unknown analyzer, keeping the
// suppression inventory honest.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"lemonade/internal/analysis"
)

func main() {
	jsonOut := flag.Bool("json", false, "emit findings as JSON")
	strictSuppress := flag.Bool("strict-suppress", false, "fail on stale or unknown //lemonvet:allow comments")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: lemonvet [-json] [-strict-suppress] [packages...]\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, err := analysis.Load(".", patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "lemonvet:", err)
		os.Exit(2)
	}

	res := analysis.Run(pkgs)
	findings := res.Findings
	if *strictSuppress {
		findings = append(findings, res.Stale...)
	}

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if findings == nil {
			findings = []analysis.Finding{}
		}
		if err := enc.Encode(findings); err != nil {
			fmt.Fprintln(os.Stderr, "lemonvet:", err)
			os.Exit(2)
		}
	} else {
		for _, f := range findings {
			fmt.Println(f)
		}
		fmt.Fprintf(os.Stderr, "lemonvet: %d packages, %d findings, %d suppressed, %d stale allows\n",
			res.Packages, len(res.Findings), res.Suppressed, len(res.Stale))
	}
	if len(findings) > 0 {
		os.Exit(1)
	}
}
