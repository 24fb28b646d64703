package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/examples.golden")

// TestExamplesGolden runs every subcommand's usage example and compares
// the output with testdata/examples.golden: a "$ lemonade ..." header
// line per example, then its stdout. Every example is seeded; the dse,
// otp, fit, plan and chipplan examples spell out their default flags.
// Regenerate with -update (and justify the diff in review).
func TestExamplesGolden(t *testing.T) {
	var got bytes.Buffer
	for _, c := range subcommands {
		args := append([]string{c.name}, strings.Fields(c.example)...)
		fmt.Fprintf(&got, "$ lemonade %s\n", strings.Join(args, " "))
		var stderr bytes.Buffer
		if code := run(args, &got, &stderr); code != 0 {
			t.Fatalf("lemonade %s: exit %d, stderr:\n%s", c.name, code, stderr.String())
		}
	}

	path := filepath.Join("testdata", "examples.golden")
	if *update {
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading golden file (run with -update to create): %v", err)
	}
	if bytes.Equal(got.Bytes(), want) {
		return
	}
	gotLines, wantLines := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gotLines) || i < len(wantLines); i++ {
		var g, w string
		if i < len(gotLines) {
			g = gotLines[i]
		}
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if g != w {
			t.Fatalf("output differs from %s at line %d:\n got: %q\nwant: %q", path, i+1, g, w)
		}
	}
}

// TestRunExitStatus pins the exit status and stderr of the command lines
// that do not reach a subcommand's output.
func TestRunExitStatus(t *testing.T) {
	for _, tc := range []struct {
		args   []string
		code   int
		stderr string // a substring of what run writes to stderr
	}{
		{nil, 2, "usage: lemonade <subcommand>"},
		{[]string{"help"}, 0, "chipplan -messages 100 -size 256"},
		{[]string{"-h"}, 0, "usage: lemonade <subcommand>"},
		{[]string{"wearattack"}, 2, `unknown subcommand "wearattack"`},
		{[]string{"frontier"}, 2, `unknown subcommand "frontier"`},
		{[]string{"dse", "-nosuch"}, 2, "flag provided but not defined: -nosuch"},
		{[]string{"sim", "-trials", "many"}, 2, `invalid value "many" for flag -trials`},
		{[]string{"plan", "-h"}, 0, "-daily int"},
		{[]string{"otp", "-alpha", "-1"}, 1, "lemonade: weibull: scale alpha must be positive"},
		{[]string{"chipplan", "-k", "0"}, 1, "lemonade: otp: k must be in [1, copies]"},
	} {
		var stdout, stderr bytes.Buffer
		code := run(tc.args, &stdout, &stderr)
		if code != tc.code || !strings.Contains(stderr.String(), tc.stderr) {
			t.Errorf("lemonade %q: exit %d, stderr %q; want exit %d, stderr containing %q",
				tc.args, code, stderr.String(), tc.code, tc.stderr)
		}
		if stdout.Len() != 0 {
			t.Errorf("lemonade %q wrote to stdout: %q", tc.args, stdout.String())
		}
	}
}
