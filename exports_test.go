package waferscale

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
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
// the value names that test. "ROADMAP item 4" marks the tracing and
// link-statistics hooks whose fate that open item decides.
var testOnlyExports = map[string]string{
	"arch.Config.ArrayAreaMM2":                 "TestTable1Derivations",
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
	"noc.Sim.LinkSkew":                         roadmapItem4,
	"noc.Sim.LinkStats":                        roadmapItem4,
	"noc.Sim.LinkUse":                          roadmapItem4,
	"noc.Sim.WriteHeatmap":                     roadmapItem4,
	"pdn.CalibrateSheetResistance":             "TestCalibrateSheetResistance",
	"pdn.DefaultConfig":                        "BenchmarkFig2DroopMap",
	"pdn.DefaultContactOhmPerSq":               "TestPlaneDecompositionMatchesCalibration",
	"pdn.DefaultPlane":                         "TestPlaneDecompositionMatchesCalibration",
	"pdn.Solution.MaxVolt":                     "TestFig2CenterDroop",
	"pdn.StackSheetOhm":                        "TestPlaneDecompositionMatchesCalibration",
	"pdn.TransientDroop":                       "TestDecapDerivation",
	"sim.Machine.SetTrace":                     roadmapItem4,
	"sim.TraceCore":                            roadmapItem4,
	"store.Journal.SetFsync":                   "TestJournalRecoveryReruns",
	"store.Store.SetFsync":                     "TestDiskStoreServesAcrossRestart",
	"substrate.FanoutSpec":                     "TestFanoutBudget",
	"substrate.FanoutSpec.ConnectorPads":       "TestFanoutBudget",
	"workload.MarshalGraph":                    "TestExampleGraphFile",
}

// interfaceMethods are the standard-library interface methods
// (fmt.Stringer, error, sort.Interface) a type may satisfy without any
// call site naming them.
var interfaceMethods = map[string]bool{
	"String": true, "Error": true, "Len": true, "Less": true, "Swap": true,
}

const roadmapItem4 = "ROADMAP item 4"

// TestInternalExportsHaveCallers keeps internal/'s exported API down to
// what the program uses: every exported name declared in a non-test
// file under internal/ must be referenced from some non-test file of
// the repository, or be listed in testOnlyExports with a citation the
// test can check. An allowlist entry whose name is now referenced, or
// gone, fails too, so the list never outlives its reason.
//
// References are found by name from the parsed syntax: a qualified
// pkg.Name resolves through the file's imports, an unqualified Name
// resolves within its own package, and a method counts as used when any
// selector in non-test code names it. A reference from inside a name's
// own declaration (a recursive call, a type's own methods) does not
// count.
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
	item4 := roadmapItem(readFile(t, "ROADMAP.md"), 4)
	item4Names := 0
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
		case cite == roadmapItem4:
			item4Names++
			if !mentions(item4, name) {
				t.Errorf("%s cites %s, which does not name %s", key, roadmapItem4, name)
			}
		case !isFunc:
			t.Errorf("%s cites %s, which is not a test or benchmark function", key, cite)
		case !mentions(experiments, cite):
			t.Errorf("%s cites %s, which EXPERIMENTS.md does not name", key, cite)
		case !s.reaches(fns, name):
			t.Errorf("%s cites %s, which does not use %s", key, cite, name)
		}
	}
	t.Logf("%d exported internal/ names have no non-test caller, %d of them awaiting %s",
		len(unref), item4Names, roadmapItem4)
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
	// refs holds the keys of the package-level names non-test code
	// references; selectors maps each selector name non-test code uses
	// (a method or a field) to the keys of the methods it is used in,
	// "" outside any method.
	refs      map[string]bool
	selectors map[string][]string
	// testFuncs maps the name of each top-level function in a _test.go
	// file to its declarations, one per package directory.
	testFuncs map[string][]testFunc
}

type testFunc struct {
	dir  string
	decl *ast.FuncDecl
}

func scanModule(t *testing.T) *moduleScan {
	t.Helper()
	s := &moduleScan{
		declared:     map[string]bool{},
		methods:      map[string]string{},
		ifaceMethods: map[string]bool{},
		refs:         map[string]bool{},
		selectors:    map[string][]string{},
		testFuncs:    map[string][]testFunc{},
	}
	type parsed struct {
		dir  string
		file *ast.File
	}
	var files []parsed
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
		files = append(files, parsed{dir, f})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	for _, p := range files {
		ast.Inspect(p.file, func(n ast.Node) bool {
			if it, ok := n.(*ast.InterfaceType); ok {
				for _, m := range it.Methods.List {
					for _, name := range m.Names {
						s.ifaceMethods[name.Name] = true
					}
				}
			}
			return true
		})
		pkg, ok := internalPkg(p.dir)
		if !ok {
			continue
		}
		for _, d := range p.file.Decls {
			for _, key := range declKeys(pkg, d) {
				s.declared[key] = true
				if fn, isFn := d.(*ast.FuncDecl); isFn && fn.Recv != nil {
					s.methods[key] = fn.Name.Name
				}
			}
		}
	}

	for _, p := range files {
		imports := map[string]string{}
		for _, spec := range p.file.Imports {
			path := strings.Trim(spec.Path.Value, `"`)
			name := path[strings.LastIndex(path, "/")+1:]
			if spec.Name != nil {
				name = spec.Name.Name
			}
			if rel, ok := strings.CutPrefix(path, "waferscale/internal/"); ok {
				imports[name] = rel
			}
		}
		pkg, inInternal := internalPkg(p.dir)
		for _, d := range p.file.Decls {
			s.collectRefs(d, imports, pkg, inInternal)
		}
	}
	return s
}

// collectRefs records the references one top-level declaration makes,
// leaving out those to the declaration itself and, in a method, to its
// receiver type.
func (s *moduleScan) collectRefs(d ast.Decl, imports map[string]string, pkg string, inInternal bool) {
	var self []string
	method := ""
	if inInternal {
		self = declKeys(pkg, d)
		if fn, ok := d.(*ast.FuncDecl); ok && fn.Recv != nil {
			if len(self) == 1 { // an exported method of an exported type
				method = self[0]
			}
			self = append(self, pkg+"."+recvType(fn))
		}
	}
	ref := func(key string) {
		if !slices.Contains(self, key) {
			s.refs[key] = true
		}
	}
	// Declared names (of the declaration, its fields and parameters)
	// and selector names are not references to package-level names.
	skip := map[*ast.Ident]bool{}
	switch d := d.(type) {
	case *ast.FuncDecl:
		skip[d.Name] = true
	case *ast.GenDecl:
		for _, spec := range d.Specs {
			switch spec := spec.(type) {
			case *ast.TypeSpec:
				skip[spec.Name] = true
			case *ast.ValueSpec:
				for _, name := range spec.Names {
					skip[name] = true
				}
			}
		}
	}
	ast.Inspect(d, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.Field:
			for _, name := range n.Names {
				skip[name] = true
			}
		case *ast.SelectorExpr:
			skip[n.Sel] = true
			if x, ok := n.X.(*ast.Ident); ok {
				if rel, ok := imports[x.Name]; ok {
					skip[x] = true
					ref(rel + "." + n.Sel.Name)
					return true
				}
			}
			s.selectors[n.Sel.Name] = append(s.selectors[n.Sel.Name], method)
		case *ast.KeyValueExpr:
			if k, ok := n.Key.(*ast.Ident); ok {
				s.selectors[k.Name] = append(s.selectors[k.Name], "")
			}
		case *ast.Ident:
			if !skip[n] && inInternal && n.IsExported() {
				ref(pkg + "." + n.Name)
			}
		}
		return true
	})
}

// unreferenced returns the sorted keys of the exported internal/ names
// that non-test code never references, leaving out methods that
// satisfy an interface.
func (s *moduleScan) unreferenced() []string {
	var out []string
	for key := range s.declared {
		if name, isMethod := s.methods[key]; isMethod {
			if interfaceMethods[name] || s.ifaceMethods[name] ||
				slices.ContainsFunc(s.selectors[name], func(in string) bool { return in != key }) {
				continue
			}
		} else if s.refs[key] {
			continue
		}
		out = append(out, key)
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

// roadmapItem returns the text of ROADMAP.md's numbered item n, up to
// the next numbered item or section.
func roadmapItem(roadmap string, n int) string {
	return regexp.MustCompile(`(?ms)^` + strconv.Itoa(n) + `\. \*\*.*?(^\d+\. \*\*|^## |\z)`).FindString(roadmap)
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
