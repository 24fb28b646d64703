package figures

import (
	"os"
	"strings"
	"testing"
)

func TestRegistryStructure(t *testing.T) {
	ex := Exhibits()
	if len(ex) < 25 {
		t.Fatalf("registry has %d exhibits, expected 25+", len(ex))
	}
	seenID := map[string]bool{}
	seenSlug := map[string]bool{}
	for _, e := range ex {
		if e.ID == "" || e.Gen == nil {
			t.Fatalf("malformed exhibit: %+v", e)
		}
		if seenID[e.ID] {
			t.Errorf("duplicate exhibit ID %q", e.ID)
		}
		seenID[e.ID] = true
		slug := Slug(e.ID)
		if slug == "" {
			t.Errorf("empty slug for %q", e.ID)
		}
		if seenSlug[slug] {
			t.Errorf("slug collision for %q", e.ID)
		}
		seenSlug[slug] = true
	}
}

// TestEveryExhibitRenders regenerates every exhibit once, in parallel
// and through the memo the shape tests share, checks each block, and
// then compares the whole text with experiments_output.txt byte for
// byte, so a change to any reproduced number fails here.
func TestEveryExhibitRenders(t *testing.T) {
	if testing.Short() {
		t.Skip("full exhibit regeneration is slow")
	}
	exhibits := Exhibits()
	texts := make([]string, len(exhibits))
	// Cleanup runs after every parallel subtest has finished.
	t.Cleanup(func() { checkGolden(t, exhibits, texts) })
	for i, e := range exhibits {
		t.Run(Slug(e.ID), func(t *testing.T) {
			t.Parallel()
			blocks := exhibitBlocks(e.ID)
			texts[i] = Text(blocks, false)
			if len(blocks) == 0 {
				t.Fatal("no blocks")
			}
			for _, b := range blocks {
				if !strings.Contains(b.Render(), e.ID) {
					t.Errorf("rendered block does not carry its ID %q", e.ID)
				}
				if len(b.CSV()) == 0 {
					t.Error("empty CSV")
				}
			}
		})
	}
}

// checkGolden compares the exhibits' text with experiments_output.txt and
// reports the first differing line and the exhibit it belongs to.
func checkGolden(t *testing.T, exhibits []Exhibit, texts []string) {
	for i, text := range texts {
		if text == "" {
			t.Logf("golden check skipped: exhibit %s did not run", exhibits[i].ID)
			return
		}
	}
	want, err := os.ReadFile("../../experiments_output.txt")
	if err != nil {
		t.Error(err)
		return
	}
	got := strings.Join(texts, "")
	if got == string(want) {
		return
	}
	gotLines := strings.SplitAfter(got, "\n")
	wantLines := strings.SplitAfter(string(want), "\n")
	n := 0
	for n < len(gotLines) && n < len(wantLines) && gotLines[n] == wantLines[n] {
		n++
	}
	owner, end := exhibits[len(exhibits)-1].ID, 0
	for i, text := range texts {
		if end += strings.Count(text, "\n"); n < end {
			owner = exhibits[i].ID
			break
		}
	}
	t.Errorf("experiments_output.txt differs at line %d (%s):\n got: %q\nwant: %q\n"+
		"if the change is intended, regenerate it: go run ./cmd/experiments > experiments_output.txt",
		n+1, owner, lineAt(gotLines, n), lineAt(wantLines, n))
}

// lineAt returns line n of a SplitAfter result, or a marker past the end.
func lineAt(lines []string, n int) string {
	if n >= len(lines) || lines[n] == "" {
		return "<end of text>"
	}
	return lines[n]
}
