// Command experiments regenerates every table and figure of the paper's
// evaluation (plus this repo's ablation/extension exhibits) and prints
// them as text or writes them as CSV files. The output backs
// EXPERIMENTS.md.
//
// Usage:
//
//	experiments [-only <id>] [-csv <dir>] [-plot]
//
// where <id> is a case-insensitive substring of an exhibit ID ("fig 4a",
// "table 1", ...). With -csv, one CSV file per exhibit is written into the
// directory instead of printing text; with -plot, figures render as ASCII
// charts. Without -only, everything runs (a few tens of seconds).
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"lemonade/internal/figures"
)

func main() {
	only := flag.String("only", "", "regenerate only exhibits whose ID contains this substring")
	csvDir := flag.String("csv", "", "write one CSV file per exhibit into this directory")
	plot := flag.Bool("plot", false, "render figures as ASCII charts instead of point lists")
	flag.Parse()

	if *csvDir != "" {
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(1)
		}
	}
	matched := false
	for _, e := range figures.Exhibits() {
		if *only != "" && !strings.Contains(strings.ToLower(e.ID), strings.ToLower(*only)) {
			continue
		}
		matched = true
		if *csvDir == "" {
			fmt.Print(figures.Text(e.Gen(), *plot))
			continue
		}
		for i, block := range e.Gen() {
			name := figures.Slug(e.ID)
			if i > 0 {
				name = fmt.Sprintf("%s-%d", name, i+1)
			}
			path := filepath.Join(*csvDir, name+".csv")
			if err := os.WriteFile(path, []byte(block.CSV()), 0o644); err != nil {
				fmt.Fprintln(os.Stderr, "experiments:", err)
				os.Exit(1)
			}
			fmt.Println("wrote", path)
		}
	}
	if !matched {
		fmt.Fprintf(os.Stderr, "experiments: no exhibit matches %q\n", *only)
		os.Exit(1)
	}
}
