package waferscale

import (
	"errors"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// testOnlyExports lists the exported internal/ names that no non-test
// code in the repository (cmd/, examples/, bench/ and internal/ itself)
// references. Each stays exported only because a test or benchmark that
// EXPERIMENTS.md cites regenerates a paper figure or table through it;
// the value names that test.
var testOnlyExports = map[string]string{
	"arch.Config.ArrayAreaMM2":                 "TestTable1Derivations",
	"arch.ChipletSpec.AreaMM2":                 "TestTable1Derivations",
	"arch.Config.TotalInterChipIOs":            "TestTable1Derivations",
	"chipio.BareDieAssembly":                   "TestESDContexts",
	"chipio.IOCell.MeetsESD":                   "TestESDContexts",
	"chipio.PadRing.SignalPads":                "TestPadGeometryFig5",
	"clock.DefaultJitter":                      "BenchmarkSec4JitterAccumulation",
	"clock.JitterModel.MaxSafeHopsSynchronous": "BenchmarkSec4JitterAccumulation",
	"clock.JitterModel.SimulateRMS":            "BenchmarkSec4JitterAccumulation",
	"clock.NewSelector":                        "BenchmarkFig3ClockSelection",
	"clock.NoSinglePointOfFailure":             "TestNoSinglePointOfFailure",
	"clock.Selector.Locked":                    "BenchmarkFig3ClockSelection",
	"clock.Selector.Selected":                  "TestSelectorFirstToThresholdWins",
	"clock.Selector.SetMode":                   "BenchmarkFig3ClockSelection",
	"clock.Selector.Step":                      "BenchmarkFig3ClockSelection",
	"core.Design.YieldToConnectivity":          "TestYieldToConnectivity",
	"fault.Clustered":                          "TestClusteredFaultsAblation",
	"fault.DefaultClusters":                    "TestClusteredFaultsAblation",
	"fault.Map.Isolated":                       "TestClusteredIsolationRisk",
	"inject.Schedule.FlapLink":                 "TestRetryJitterKeepsDeterminism",
	"jtag.DAP.InjectStuckBit":                  "TestMarchDetectsEveryStuckBit",
	"jtag.MarchCMinus":                         "TestMarchDetectsEveryStuckBit",
	"jtag.NewDAPMemory":                        "TestMarchDetectsEveryStuckBit",
	"noc.NewAnalyzer":                          "BenchmarkAblationOddEven",
	"noc.OddEvenAllPairs":                      "BenchmarkAblationOddEven",
	"noc.OddEvenPolicy":                        "TestOddEvenAdaptiveBeatsDoRUnderHotspot",
	"noc.OddEvenReachable":                     "TestOddEvenMatchesConnectivityOracle",
	"noc.OddEvenStats.Pct":                     "BenchmarkAblationOddEven",
	"noc.SaturationRate":                       "TestSaturationNearTheory",
	"pdn.CalibrateSheetResistance":             "TestCalibrateSheetResistance",
	"pdn.DefaultConfig":                        "BenchmarkFig2DroopMap",
	"pdn.DefaultContactOhmPerSq":               "TestPlaneDecompositionMatchesCalibration",
	"pdn.DefaultPlane":                         "TestPlaneDecompositionMatchesCalibration",
	"pdn.Solution.MaxVolt":                     "TestFig2CenterDroop",
	"pdn.StackSheetOhm":                        "TestPlaneDecompositionMatchesCalibration",
	"pdn.TransientDroop":                       "TestDecapDerivation",
	"sim.Machine.Net":                          "TestMachineFastPathDifferentialBFS",
	"store.Journal.SetFsync":                   "TestJournalRecoveryReruns",
	"store.Store.SetFsync":                     "TestDiskStoreServesAcrossRestart",
	"substrate.FanoutSpec":                     "TestFanoutBudget",
	"substrate.FanoutSpec.ConnectorPads":       "TestFanoutBudget",
	"substrate.FanoutSpec.Validate":            "TestFanoutBudget",
	"workload.MarshalGraph":                    "TestExampleGraphFile",
}

// interfaceMethods are the standard-library interface methods
// (fmt.Stringer, error, sort.Interface) a type may satisfy without any
// call site naming them.
var interfaceMethods = map[string]bool{
	"String": true, "Error": true, "Len": true, "Less": true, "Swap": true,
}

// TestInternalExportsHaveCallers keeps internal/'s exported API down to
// what the program uses: every exported name declared in a non-test
// file under internal/ must be referenced from some non-test file of
// the repository, or be listed in testOnlyExports with a citation the
// test can check. An allowlist entry whose name is now referenced, or
// gone, fails too, so the list never outlives its reason.
//
// References are resolved by type-checking every non-test package from
// source (go/types; the standard library comes from its compiled
// export data): an identifier counts for the declaration it denotes,
// and a method call or method value for the method of the receiver
// type it selects, so a used method does not cover an unused one of
// the same name on another type. A method that an interface may
// dispatch to — its name is declared by an interface type in the
// repository or is a standard interface method (interfaceMethods) —
// is exempt, since no selector names its receiver. A reference from
// inside a name's own declaration (a recursive call, a type's own
// methods) does not count.
func TestInternalExportsHaveCallers(t *testing.T) {
	s := scanModule(t)
	unref := s.unreferenced()

	var missing []string
	for _, key := range unref {
		if _, ok := testOnlyExports[key]; !ok {
			missing = append(missing, key)
		}
	}
	if len(missing) > 0 {
		t.Errorf("%d exported internal/ names have no non-test caller; delete them, or add each to testOnlyExports with the EXPERIMENTS.md-cited test that needs it:\n\t%s",
			len(missing), strings.Join(missing, "\n\t"))
	}

	experiments := readFile(t, "EXPERIMENTS.md")
	keys := make([]string, 0, len(testOnlyExports))
	for key := range testOnlyExports {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	for _, key := range keys {
		cite := testOnlyExports[key]
		name := key[strings.LastIndex(key, ".")+1:]
		fns, isFunc := s.testFuncs[cite]
		switch {
		case !s.declared[key]:
			t.Errorf("stale allowlist entry %s: no such exported name in internal/", key)
		case !slices.Contains(unref, key):
			t.Errorf("stale allowlist entry %s: it now has a non-test caller", key)
		case !isFunc:
			t.Errorf("%s cites %s, which is not a test or benchmark function", key, cite)
		case !mentions(experiments, cite):
			t.Errorf("%s cites %s, which EXPERIMENTS.md does not name", key, cite)
		case !s.reaches(fns, name):
			t.Errorf("%s cites %s, which does not use %s", key, cite, name)
		}
	}
	t.Logf("%d exported internal/ names have no non-test caller", len(unref))
}

// moduleScan holds what the test needs from the parsed repository. A
// key names an exported internal/ declaration as
// "<package path below internal/>.<Name>" or, for a method,
// "<package path>.<Type>.<Method>".
type moduleScan struct {
	declared map[string]bool
	// methods maps a method's key to its bare name.
	methods map[string]string
	// ifaceMethods holds every method name an interface type in the
	// repository declares: implementations are reached through it.
	ifaceMethods map[string]bool
	// refs holds the keys non-test code references.
	refs map[string]bool
	// testFuncs maps the name of each top-level function in a _test.go
	// file to its declarations, one per package directory.
	testFuncs map[string][]testFunc
}

type testFunc struct {
	dir  string
	decl *ast.FuncDecl
}

// modulePath is the import path of the repository's root module; bench/
// is a module of its own that imports this one.
const modulePath = "waferscale"

func scanModule(t *testing.T) *moduleScan {
	t.Helper()
	s := &moduleScan{
		declared:     map[string]bool{},
		methods:      map[string]string{},
		ifaceMethods: map[string]bool{},
		refs:         map[string]bool{},
		testFuncs:    map[string][]testFunc{},
	}
	// pkgs holds the non-test files of each package directory.
	pkgs := map[string][]*ast.File{}
	var dirs []string
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		dir := filepath.ToSlash(filepath.Dir(path))
		if strings.HasSuffix(path, "_test.go") {
			for _, d := range f.Decls {
				if fn, ok := d.(*ast.FuncDecl); ok && fn.Recv == nil {
					s.testFuncs[fn.Name.Name] = append(s.testFuncs[fn.Name.Name], testFunc{dir, fn})
				}
			}
			return nil
		}
		if pkgs[dir] == nil {
			dirs = append(dirs, dir)
		}
		pkgs[dir] = append(pkgs[dir], f)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	for _, dir := range dirs {
		for _, f := range pkgs[dir] {
			ast.Inspect(f, func(n ast.Node) bool {
				if it, ok := n.(*ast.InterfaceType); ok {
					for _, m := range it.Methods.List {
						for _, name := range m.Names {
							s.ifaceMethods[name.Name] = true
						}
					}
				}
				return true
			})
			pkg, ok := internalPkg(dir)
			if !ok {
				continue
			}
			for _, d := range f.Decls {
				for _, key := range declKeys(pkg, d) {
					s.declared[key] = true
					if fn, isFn := d.(*ast.FuncDecl); isFn && fn.Recv != nil {
						s.methods[key] = fn.Name.Name
					}
				}
			}
		}
	}

	info := typeCheck(t, fset, dirs, pkgs)
	for _, dir := range dirs {
		pkg, inInternal := internalPkg(dir)
		for _, f := range pkgs[dir] {
			for _, d := range f.Decls {
				s.collectRefs(d, info, pkg, inInternal)
			}
		}
	}
	return s
}

// typeCheck type-checks every package directory from source, resolving
// the repository's own imports to those checks and the standard
// library's to its export data, which one `go list -export` call
// locates (building it into the Go build cache if needed). It returns
// the resolved identifier uses of every package.
func typeCheck(t *testing.T, fset *token.FileSet, dirs []string, pkgs map[string][]*ast.File) *types.Info {
	t.Helper()
	byPath := map[string]string{} // import path -> directory
	std := map[string]bool{}
	for _, dir := range dirs {
		byPath[importPath(dir)] = dir
		for _, f := range pkgs[dir] {
			for _, spec := range f.Imports {
				if path, _ := strconv.Unquote(spec.Path.Value); !strings.HasPrefix(path, modulePath+"/") {
					std[path] = true
				}
			}
		}
	}
	args := []string{"list", "-export", "-deps", "-f", "{{.ImportPath}}={{.Export}}"}
	for path := range std {
		args = append(args, path)
	}
	out, err := exec.Command("go", args...).Output()
	if err != nil {
		var exit *exec.ExitError
		if errors.As(err, &exit) {
			t.Fatalf("go list -export: %v\n%s", err, exit.Stderr)
		}
		t.Fatalf("go list -export: %v", err)
	}
	exports := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		path, file, _ := strings.Cut(line, "=")
		exports[path] = file
	}
	stdImporter := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		if exports[path] == "" {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(exports[path])
	})

	info := &types.Info{Uses: map[*ast.Ident]types.Object{}}
	checked := map[string]*types.Package{}
	var check func(path string) (*types.Package, error)
	conf := types.Config{Importer: importerFunc(func(path string) (*types.Package, error) {
		if _, own := byPath[path]; own {
			return check(path)
		}
		return stdImporter.Import(path)
	})}
	check = func(path string) (*types.Package, error) {
		if p, ok := checked[path]; ok {
			return p, nil
		}
		p, err := conf.Check(path, fset, pkgs[byPath[path]], info)
		checked[path] = p
		return p, err
	}
	for _, dir := range dirs {
		if _, err := check(importPath(dir)); err != nil {
			t.Fatalf("type-checking %s: %v", dir, err)
		}
	}
	return info
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// importPath returns a package directory's import path: bench/ is the
// module of that name, everything else belongs to the root module.
func importPath(dir string) string {
	if dir == "." {
		return modulePath
	}
	return modulePath + "/" + dir
}

// collectRefs records the keys of the exported internal/ names one
// top-level declaration references, leaving out the declaration itself
// and, in a method, its receiver type.
func (s *moduleScan) collectRefs(d ast.Decl, info *types.Info, pkg string, inInternal bool) {
	var self []string
	if inInternal {
		self = declKeys(pkg, d)
		if fn, ok := d.(*ast.FuncDecl); ok && fn.Recv != nil {
			self = append(self, pkg+"."+recvType(fn))
		}
	}
	ast.Inspect(d, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if key := objKey(info.Uses[id]); key != "" && !slices.Contains(self, key) {
				s.refs[key] = true
			}
		}
		return true
	})
}

// objKey returns the key of an exported package-level object or method
// of an internal/ package, and "" for anything else (fields, locals,
// other packages' names).
func objKey(obj types.Object) string {
	if obj == nil || obj.Pkg() == nil || !obj.Exported() {
		return ""
	}
	pkg, ok := strings.CutPrefix(obj.Pkg().Path(), modulePath+"/internal/")
	if !ok {
		return ""
	}
	if obj.Parent() == obj.Pkg().Scope() {
		return pkg + "." + obj.Name()
	}
	fn, ok := obj.(*types.Func)
	if !ok {
		return ""
	}
	recv := fn.Origin().Type().(*types.Signature).Recv()
	if recv == nil {
		return ""
	}
	typ := recv.Type()
	if ptr, ok := typ.(*types.Pointer); ok {
		typ = ptr.Elem()
	}
	named, ok := typ.(*types.Named)
	if !ok {
		return "" // an interface's method: its implementations are exempt by name
	}
	return pkg + "." + named.Origin().Obj().Name() + "." + obj.Name()
}

// unreferenced returns the sorted keys of the exported internal/ names
// that non-test code never references, leaving out methods an
// interface may dispatch to.
func (s *moduleScan) unreferenced() []string {
	var out []string
	for key := range s.declared {
		if name, isMethod := s.methods[key]; isMethod && (interfaceMethods[name] || s.ifaceMethods[name]) {
			continue
		}
		if !s.refs[key] {
			out = append(out, key)
		}
	}
	sort.Strings(out)
	return out
}

// reaches reports whether one of a test function's declarations names
// the identifier, directly or through a same-package test helper it
// calls.
func (s *moduleScan) reaches(fns []testFunc, name string) bool {
	seen := map[*ast.FuncDecl]bool{}
	var walk func(fn testFunc) bool
	walk = func(fn testFunc) bool {
		if seen[fn.decl] || fn.decl.Body == nil {
			return false
		}
		seen[fn.decl] = true
		found := false
		ast.Inspect(fn.decl.Body, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && !found {
				found = id.Name == name || slices.ContainsFunc(s.testFuncs[id.Name], func(h testFunc) bool {
					return h.dir == fn.dir && walk(h)
				})
			}
			return !found
		})
		return found
	}
	return slices.ContainsFunc(fns, walk)
}

// internalPkg returns a directory's package path below internal/.
func internalPkg(dir string) (string, bool) {
	return strings.CutPrefix(dir, "internal/")
}

// declKeys returns the keys of the exported names a top-level
// declaration introduces; a method counts only on an exported type.
func declKeys(pkg string, d ast.Decl) []string {
	var keys []string
	switch d := d.(type) {
	case *ast.FuncDecl:
		switch {
		case !d.Name.IsExported():
		case d.Recv == nil:
			keys = append(keys, pkg+"."+d.Name.Name)
		case ast.IsExported(recvType(d)):
			keys = append(keys, pkg+"."+recvType(d)+"."+d.Name.Name)
		}
	case *ast.GenDecl:
		for _, spec := range d.Specs {
			switch spec := spec.(type) {
			case *ast.TypeSpec:
				if spec.Name.IsExported() {
					keys = append(keys, pkg+"."+spec.Name.Name)
				}
			case *ast.ValueSpec:
				for _, name := range spec.Names {
					if name.IsExported() {
						keys = append(keys, pkg+"."+name.Name)
					}
				}
			}
		}
	}
	return keys
}

// recvType returns the name of a method's receiver type.
func recvType(fn *ast.FuncDecl) string {
	typ := fn.Recv.List[0].Type
	if star, ok := typ.(*ast.StarExpr); ok {
		typ = star.X
	}
	switch generic := typ.(type) {
	case *ast.IndexExpr:
		typ = generic.X
	case *ast.IndexListExpr:
		typ = generic.X
	}
	if id, ok := typ.(*ast.Ident); ok {
		return id.Name
	}
	return ""
}

// mentions reports whether text contains name as a whole word.
func mentions(text, name string) bool {
	return regexp.MustCompile(`\b` + regexp.QuoteMeta(name) + `\b`).MatchString(text)
}

func readFile(t *testing.T, name string) string {
	t.Helper()
	b, err := os.ReadFile(name)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}
