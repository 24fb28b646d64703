package analysis

import (
	"fmt"
	"os/exec"
	"sort"
	"strings"
	"testing"
)

// loadFixture loads the fixture tree of one analyzer from testdata/src
// (logahead spans three packages, connected by the call graph).
func loadFixture(t *testing.T, name string) []*Package {
	t.Helper()
	pkgs, err := Load(".", "./testdata/src/"+name+"/...")
	if err != nil {
		t.Fatalf("load fixture %s: %v", name, err)
	}
	if len(pkgs) == 0 {
		t.Fatalf("fixture %s matched no packages", name)
	}
	return pkgs
}

// wantMarkers extracts "// want <analyzer>" comments across a fixture
// tree, keyed by "file:line".
func wantMarkers(pkgs []*Package) map[string]string {
	want := make(map[string]string)
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					rest, ok := strings.CutPrefix(c.Text, "// want ")
					if !ok {
						continue
					}
					pos := pkg.Fset.Position(c.Pos())
					want[fmt.Sprintf("%s:%d", pos.Filename, pos.Line)] = strings.TrimSpace(rest)
				}
			}
		}
	}
	return want
}

// programAnalyzers are the passes that follow the call graph across
// package boundaries; the rest read one package at a time.
var programAnalyzers = []*Analyzer{GuardedBy, LockOrder, LogAhead, CtxFlow}

func isProgramAnalyzer(a *Analyzer) bool {
	for _, p := range programAnalyzers {
		if p == a {
			return true
		}
	}
	return false
}

// TestAnalyzers runs each per-package analyzer against its fixture tree;
// TestProgramAnalyzers covers the rest of All().
func TestAnalyzers(t *testing.T) {
	for _, a := range All() {
		if isProgramAnalyzer(a) {
			continue
		}
		t.Run(a.Name, func(t *testing.T) { checkFixture(t, a) })
	}
}

// TestProgramAnalyzers runs each whole-program analyzer against its
// fixture tree.
//
// The Bad* cases of the logahead and lockorder fixtures double as
// regression demonstrations: deleting the checked ticket wait before a
// wear mutation (BadNoAppend / BadUncheckedAppend) makes logahead fire,
// and swapping a lock order (BA, DC) makes lockorder fire. The guardedby
// fixture's branch cases (OKSwitchRelease through BadForPostLock) fail if
// the flow walker lets a lock effect escape the branch it happens in.
func TestProgramAnalyzers(t *testing.T) {
	for _, a := range programAnalyzers {
		t.Run(a.Name, func(t *testing.T) { checkFixture(t, a) })
	}
}

// checkFixture runs one analyzer against its fixture tree and checks the
// findings against the fixture's "// want" markers: every marked line
// must be reported, no unmarked line may be, and the fixture's
// //lemonvet:allow example must suppress exactly one finding.
func checkFixture(t *testing.T, a *Analyzer) {
	t.Helper()
	pkgs := loadFixture(t, a.Name)
	findings, suppressed := Check(pkgs, []*Analyzer{a})
	want := wantMarkers(pkgs)
	if len(want) == 0 {
		t.Fatalf("fixture %s has no // want markers", a.Name)
	}
	got := make(map[string]bool)
	for _, f := range findings {
		if f.Analyzer != a.Name {
			t.Errorf("unexpected analyzer %q in finding %s", f.Analyzer, f)
		}
		key := fmt.Sprintf("%s:%d", f.Pos.Filename, f.Pos.Line)
		if _, expected := want[key]; !expected {
			t.Errorf("unexpected finding: %s", f)
		}
		got[key] = true
	}
	var missed []string
	for key, wantAnalyzer := range want {
		if wantAnalyzer != a.Name {
			t.Errorf("%s wants %q, fixture belongs to %q", key, wantAnalyzer, a.Name)
		}
		if !got[key] {
			missed = append(missed, key)
		}
	}
	sort.Strings(missed)
	for _, key := range missed {
		t.Errorf("no finding at %s, want one", key)
	}
	if suppressed != 1 {
		t.Errorf("suppressed = %d, want 1 (each fixture carries one //lemonvet:allow example)", suppressed)
	}
}

// TestAnalyzersForConfig pins the driver's applicability rules.
func TestAnalyzersForConfig(t *testing.T) {
	const (
		all     = "nodeterminism,rngcapture,floateq,panicpolicy,errcheck,guardedby,lockorder,logahead,ctxflow"
		library = "nodeterminism,rngcapture,floateq,panicpolicy,errcheck,guardedby,lockorder,ctxflow"
		command = "rngcapture,floateq,errcheck,guardedby,lockorder"
	)
	cases := []struct {
		path    string
		pkgName string
		want    string
	}{
		{"lemonade/internal/montecarlo", "montecarlo", library},
		{"lemonade/internal/rng", "rng", library},
		{"lemonade/internal/registry", "registry", all},
		{"lemonade/internal/wal", "wal", all},
		{"lemonade/cmd/lemonade", "main", command},
		{"lemonade/cmd/lemonaded", "main", command},
		{"lemonade/examples/quickstart", "main", "nodeterminism,rngcapture,floateq,panicpolicy,errcheck,guardedby,lockorder"},
		{"lemonade/internal/analysis/testdata/src/floateq", "floateq", ""},
		{"lemonade/internal/analysis/testdata/src/guardedby", "guardedby", ""},
	}
	for _, c := range cases {
		var names []string
		for _, a := range analyzersFor(c.path, c.pkgName) {
			names = append(names, a.Name)
		}
		if got := strings.Join(names, ","); got != c.want {
			t.Errorf("analyzersFor(%q, %q) = %q, want %q", c.path, c.pkgName, got, c.want)
		}
	}
}

// TestProgramAnalyzersForConfig pins the applicability rules of the
// whole-program passes on their own.
func TestProgramAnalyzersForConfig(t *testing.T) {
	cases := []struct {
		path    string
		pkgName string
		want    string
	}{
		{"lemonade/internal/registry", "registry", "guardedby,lockorder,logahead,ctxflow"},
		{"lemonade/internal/wal", "wal", "guardedby,lockorder,logahead,ctxflow"},
		{"lemonade/internal/montecarlo", "montecarlo", "guardedby,lockorder,ctxflow"},
		{"lemonade/cmd/lemonaded", "main", "guardedby,lockorder"},
		{"lemonade/internal/analysis/testdata/src/guardedby", "guardedby", ""},
	}
	for _, c := range cases {
		var names []string
		for _, a := range analyzersFor(c.path, c.pkgName) {
			if isProgramAnalyzer(a) {
				names = append(names, a.Name)
			}
		}
		if got := strings.Join(names, ","); got != c.want {
			t.Errorf("program analyzersFor(%q, %q) = %q, want %q", c.path, c.pkgName, got, c.want)
		}
	}
}

// TestRunCleanTree is the self-hosting check: the full driver (every
// analyzer, applicability table and suppression resolution) over the
// entire module must produce zero findings and zero stale allow comments
// — the exact condition that makes
// `go run ./cmd/lemonvet -strict-suppress ./...` exit 0 in CI.
func TestRunCleanTree(t *testing.T) {
	pkgs, err := Load("../..", "./...")
	if err != nil {
		t.Fatalf("load module: %v", err)
	}
	res := Run(pkgs)
	if res.Packages < 20 {
		t.Fatalf("analyzed only %d packages; pattern ./... no longer covers the module?", res.Packages)
	}
	for _, f := range res.Findings {
		t.Errorf("finding: %s", f)
	}
	for _, f := range res.Stale {
		t.Errorf("stale allow: %s", f)
	}
	if res.Suppressed == 0 {
		t.Error("suppressed = 0: the tree's documented //lemonvet:allow comments were not resolved")
	}
}

// TestCommandExitCode smoke-tests the real CLI: exit 0 and valid JSON on a
// clean package.
func TestCommandExitCode(t *testing.T) {
	if testing.Short() {
		t.Skip("exec-based smoke test")
	}
	cmd := exec.Command("go", "run", "./cmd/lemonvet", "-json", "./internal/rng")
	cmd.Dir = "../.."
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("lemonvet on clean package: %v\n%s", err, out)
	}
	if got := strings.TrimSpace(string(out)); got != "[]" {
		t.Fatalf("expected empty JSON findings array, got %s", got)
	}
}

// TestFindingString pins the text output format CI consumers grep for.
func TestFindingString(t *testing.T) {
	findings, _ := Check(loadFixture(t, "panicpolicy"), []*Analyzer{PanicPolicy})
	if len(findings) == 0 {
		t.Fatal("no findings")
	}
	s := findings[0].String()
	if !strings.Contains(s, "p.go:") || !strings.Contains(s, "[panicpolicy]") {
		t.Errorf("finding format %q lacks file:line or [analyzer] tag", s)
	}
	if !strings.Contains(s, fmt.Sprintf(":%d:", findings[0].Pos.Line)) {
		t.Errorf("finding format %q lacks line number", s)
	}
}
