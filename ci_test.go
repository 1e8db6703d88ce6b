package repro

import (
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// TestCIRunNamesExist: every `go test … -run '<re>' … <packages>` line of the
// CI workflow names tests that exist. go test passes silently on a -run
// pattern that matches nothing, so a test that is renamed or deleted would
// otherwise drop out of its CI step unnoticed: each top-level alternative of
// the pattern must match a Test, Fuzz or Example function of one of the
// packages the line lists. The fixture line shows the check sees a stale name.
func TestCIRunNamesExist(t *testing.T) {
	yml, err := os.ReadFile(filepath.Join(".github", "workflows", "ci.yml"))
	if err != nil {
		t.Fatal(err)
	}
	stale, lines := staleRunNames(t, string(yml))
	for _, s := range stale {
		t.Errorf("ci.yml: %s", s)
	}
	if lines == 0 {
		t.Fatal("ci.yml has no go test -run line; the parser no longer reads it")
	}
	fixture := "        run: go test -race -run 'TestRunUntilNTable|TestNoSuchTest' -count=1 ./internal/sim\n"
	if stale, _ := staleRunNames(t, fixture); len(stale) != 1 || !strings.Contains(stale[0], `"TestNoSuchTest"`) {
		t.Errorf("fixture: got %q, want TestNoSuchTest reported alone", stale)
	}
}

// staleRunNames returns, for every go test line of a workflow that has a
// -run pattern, each alternative of the pattern that matches no test of the
// line's packages, and how many such lines it read. -run=NONE, the idiom
// that runs no test beside -bench or -fuzz, is skipped.
func staleRunNames(t *testing.T, yml string) (stale []string, lines int) {
	t.Helper()
	for _, m := range regexp.MustCompile(`go test ([^\n]*)`).FindAllStringSubmatch(yml, -1) {
		var pattern string
		var pkgs []string
		args := strings.Fields(m[1])
		for i := 0; i < len(args); i++ {
			switch a := strings.Trim(args[i], `'"`); {
			case a == "-run" && i+1 < len(args):
				i++
				pattern = strings.Trim(args[i], `'"`)
			case strings.HasPrefix(a, "-run="):
				pattern = strings.TrimPrefix(a, "-run=")
			case a == "." || strings.HasPrefix(a, "./"):
				pkgs = append(pkgs, a)
			}
		}
		if pattern == "" || pattern == "NONE" {
			continue
		}
		lines++
		names := testNames(t, pkgs)
		for _, alt := range alternatives(pattern) {
			re, err := regexp.Compile(alt)
			if err != nil {
				stale = append(stale, "-run alternative "+alt+" does not compile: "+err.Error())
				continue
			}
			if !slices.ContainsFunc(names, re.MatchString) {
				stale = append(stale, `-run alternative "`+alt+`" matches no test in `+strings.Join(pkgs, " "))
			}
		}
	}
	return stale, lines
}

// alternatives splits a -run pattern at its top-level '|' and keeps, of
// each alternative, the part that matches top-level test names (before the
// first unbracketed '/', as go test splits it).
func alternatives(pattern string) []string {
	var alts []string
	depth, start := 0, 0
	for i, c := range pattern + "|" {
		switch {
		case c == '(' || c == '[':
			depth++
		case c == ')' || c == ']':
			depth--
		case c == '|' && depth == 0:
			alt := pattern[start:i]
			if j := strings.Index(alt, "/"); j >= 0 && !strings.ContainsAny(alt[:j], "([") {
				alt = alt[:j]
			}
			alts = append(alts, alt)
			start = i + 1
		}
	}
	return alts
}

// testNames returns the Test, Fuzz and Example functions of the packages a
// go test line lists ("./..." is every package of this module).
func testNames(t *testing.T, pkgs []string) []string {
	t.Helper()
	decl := regexp.MustCompile(`(?m)^func ((?:Test|Fuzz|Example)\w*)\(`)
	var names []string
	read := func(dir string) {
		files, err := filepath.Glob(filepath.Join(dir, "*_test.go"))
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range files {
			b, err := os.ReadFile(f)
			if err != nil {
				t.Fatal(err)
			}
			for _, m := range decl.FindAllSubmatch(b, -1) {
				names = append(names, string(m[1]))
			}
		}
	}
	for _, p := range pkgs {
		if p != "./..." {
			read(strings.TrimPrefix(p, "./"))
			continue
		}
		err := filepath.WalkDir(".", func(path string, d os.DirEntry, err error) error {
			switch {
			case err != nil:
				return err
			case !d.IsDir():
			case path != "." && (path == "benchmark" || d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")):
				// benchmark/ is a module of its own; ./... stops there.
				return filepath.SkipDir
			default:
				read(path)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	return names
}
