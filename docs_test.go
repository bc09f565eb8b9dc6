package hyscale

import (
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"

	"hyscale/internal/experiments"
)

// docFiles are the repository documents whose links CI verifies.
var docFiles = []string{"README.md", "DESIGN.md", "EXPERIMENTS.md", "ROADMAP.md", "CHANGES.md", "docs/ALGORITHMS.md"}

var mdLink = regexp.MustCompile(`\[[^\]]*\]\(([^)\s]+)\)`)

// TestMarkdownLinks checks every relative markdown link in the top-level
// docs points at a file that exists (external URLs and in-page anchors are
// skipped). This is the docs job's link check; it also runs with the normal
// test suite so broken links fail before CI.
func TestMarkdownLinks(t *testing.T) {
	for _, doc := range docFiles {
		body, err := os.ReadFile(doc)
		if err != nil {
			t.Fatalf("%s: %v", doc, err)
		}
		for _, m := range mdLink.FindAllStringSubmatch(string(body), -1) {
			target := m[1]
			switch {
			case strings.HasPrefix(target, "http://"),
				strings.HasPrefix(target, "https://"),
				strings.HasPrefix(target, "mailto:"),
				strings.HasPrefix(target, "#"):
				continue
			}
			if i := strings.IndexByte(target, '#'); i >= 0 {
				target = target[:i]
			}
			if target == "" {
				continue
			}
			// Relative links resolve against the document's own directory,
			// the way GitHub renders them.
			resolved := filepath.Join(filepath.Dir(doc), filepath.FromSlash(target))
			if _, err := os.Stat(resolved); err != nil {
				t.Errorf("%s: broken link %q: %v", doc, m[0], err)
			}
		}
	}
}

// TestDocsMentionPackagesThatExist keeps DESIGN.md's inventory honest: every
// `internal/...` path it names must be a real package directory.
func TestDocsMentionPackagesThatExist(t *testing.T) {
	pkgRef := regexp.MustCompile("`(internal/[a-z]+)`")
	for _, doc := range []string{"README.md", "DESIGN.md"} {
		body, err := os.ReadFile(doc)
		if err != nil {
			t.Fatalf("%s: %v", doc, err)
		}
		for _, m := range pkgRef.FindAllStringSubmatch(string(body), -1) {
			if fi, err := os.Stat(m[1]); err != nil || !fi.IsDir() {
				t.Errorf("%s references %s, which is not a package directory", doc, m[1])
			}
		}
	}
}

// TestDocsNameRegisteredExperiments keeps the hyscale-bench docs honest:
// every `-exp <id>` the top-level docs name is a registered experiment, and
// EXPERIMENTS.md's table of -exp modes lists exactly the registered ids.
func TestDocsNameRegisteredExperiments(t *testing.T) {
	registered := append(experiments.AllIDs(), "macro", "scale")
	if _, err := experiments.Lookup(registered); err != nil {
		t.Fatal(err)
	}
	expFlag := regexp.MustCompile(`-exp\s+([a-z0-9]+(?:,[a-z0-9]+)*)`)
	for _, doc := range []string{"README.md", "DESIGN.md", "EXPERIMENTS.md"} {
		body, err := os.ReadFile(doc)
		if err != nil {
			t.Fatalf("%s: %v", doc, err)
		}
		for _, m := range expFlag.FindAllStringSubmatch(string(body), -1) {
			if _, err := experiments.Lookup(strings.Split(m[1], ",")); err != nil {
				t.Errorf("%s: %q: %v", doc, m[0], err)
			}
		}
	}

	// The mode table runs from its "| `-exp` |" header to the next blank
	// line; a row may name several ids ("`fig6` / `fig7` / `fig8`").
	body, err := os.ReadFile("EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	_, table, ok := strings.Cut(string(body), "| `-exp` |")
	if !ok {
		t.Fatal("EXPERIMENTS.md has no -exp mode table")
	}
	table, _, _ = strings.Cut(table, "\n\n")
	var listed []string
	for _, row := range strings.Split(table, "\n")[2:] {
		first, _, _ := strings.Cut(strings.TrimPrefix(row, "| "), " |")
		for _, id := range strings.Split(first, " / ") {
			listed = append(listed, strings.Trim(id, "`"))
		}
	}
	slices.Sort(listed)
	slices.Sort(registered)
	if !slices.Equal(listed, registered) {
		t.Errorf("EXPERIMENTS.md lists -exp modes %q, registered ids are %q", listed, registered)
	}
}
