package waferscale

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// ciTestFlag matches a go test -run or -bench pattern: quoted, or a
// bare word.
var ciTestFlag = regexp.MustCompile(`-(run|bench)[= ](?:'([^']*)'|"([^"]*)"|(\S+))`)

// TestCIRunPatternsMatchTests keeps the CI workflow's test selections
// honest: go test passes silently when a -run or -bench alternative
// names no function, so a deleted or renamed test would drop out of
// its CI step unnoticed. Every alternative of every pattern in
// ci.yml must match a Test, Benchmark or Fuzz function declared in a
// _test.go file of the packages that step names. '^$' selects nothing
// on purpose and is skipped.
func TestCIRunPatternsMatchTests(t *testing.T) {
	ci := readFile(t, ".github/workflows/ci.yml")
	checked := 0
	for n, line := range strings.Split(ci, "\n") {
		i := strings.Index(line, "go test ")
		if i < 0 || !ciTestFlag.MatchString(line) {
			continue
		}
		funcs := ciTestFuncs(t, strings.Fields(line[i:]))
		if len(funcs) == 0 {
			t.Errorf("ci.yml:%d: the step names no package with tests: %s", n+1, strings.TrimSpace(line))
			continue
		}
		for _, m := range ciTestFlag.FindAllStringSubmatch(line, -1) {
			pattern := m[2] + m[3] + m[4]
			if pattern == "^$" {
				continue
			}
			// Splitting at every '|' is exact for flat patterns; a
			// group or a subtest level fails here, not silently.
			for _, alt := range strings.Split(pattern, "|") {
				re, err := regexp.Compile(alt)
				if err != nil {
					t.Errorf("ci.yml:%d: -%s alternative %q: %v", n+1, m[1], alt, err)
					continue
				}
				checked++
				if !matchesAny(re, funcs) {
					t.Errorf("ci.yml:%d: -%s alternative %q matches no test function in its packages", n+1, m[1], alt)
				}
			}
		}
	}
	if checked == 0 {
		t.Fatal("found no -run or -bench pattern in ci.yml")
	}
	t.Logf("checked %d pattern alternatives in ci.yml", checked)
}

// ciTestFuncs returns the Test, Benchmark and Fuzz functions declared
// in the _test.go files of the packages a go test command line names:
// "." and "./x/" name one directory, "./..." every directory of the
// module.
func ciTestFuncs(t *testing.T, args []string) []string {
	t.Helper()
	var dirs []string
	for _, a := range args {
		switch {
		case a == "./...":
			err := filepath.WalkDir(".", func(p string, e fs.DirEntry, err error) error {
				if err != nil || !e.IsDir() {
					return err
				}
				// A nested module, testdata and hidden directories are
				// outside the pattern.
				name := e.Name()
				if p != "." {
					if _, err := os.Stat(filepath.Join(p, "go.mod")); err == nil || name == "testdata" || strings.HasPrefix(name, ".") {
						return filepath.SkipDir
					}
				}
				dirs = append(dirs, p)
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
		case a == "." || strings.HasPrefix(a, "./"):
			dirs = append(dirs, a)
		}
	}
	var funcs []string
	for _, d := range dirs {
		files, err := filepath.Glob(filepath.Join(d, "*_test.go"))
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range files {
			file, err := parser.ParseFile(token.NewFileSet(), f, nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			for _, decl := range file.Decls {
				if fn, ok := decl.(*ast.FuncDecl); ok && fn.Recv == nil {
					name := fn.Name.Name
					if strings.HasPrefix(name, "Test") || strings.HasPrefix(name, "Benchmark") || strings.HasPrefix(name, "Fuzz") {
						funcs = append(funcs, name)
					}
				}
			}
		}
	}
	return funcs
}

func matchesAny(re *regexp.Regexp, names []string) bool {
	for _, n := range names {
		if re.MatchString(n) {
			return true
		}
	}
	return false
}
