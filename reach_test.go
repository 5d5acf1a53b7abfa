// Reachability audit: nothing ships that only a test calls. Every
// exported package-level func, type, const, var and method declared in a
// non-test file under internal/ must be referenced from some non-test
// file (product, cmd/, bench/) at a place other than its own
// declaration, or sit on reachAllow with the reason it stays. AST-only
// (no type checking), so resolution is by name: a package-level symbol
// is matched as a bare identifier inside its package and as pkg.Name
// through each file's imports; a method is matched as any .Name selector.
// TestMainsLiveUnderCmd keeps that caller set closed: no package main
// outside cmd/ and bench/ exists to count as a caller.
package nwsenv

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// reachAllow lists the exported symbols no non-test file references,
// keyed "pkgdir.Name" (methods "pkgdir.Type.Name"), each with the reason
// it is kept. A symbol that gains a product caller must leave the list:
// the test fails on stale entries.
var reachAllow = map[string]string{
	// Interface satisfiers, called through container/heap and errors.
	"internal/simnet.flowHeap.Less":         "heap.Interface",
	"internal/simnet.flowHeap.Swap":         "heap.Interface",
	"internal/simnet.routePQ.Less":          "heap.Interface",
	"internal/simnet.routePQ.Swap":          "heap.Interface",
	"internal/query.DegradedError.Unwrap":   "errors.Is/As chain to ErrDegraded",
	"internal/query.OverloadedError.Unwrap": "errors.Is/As chain to ErrOverloaded",

	// Deliberate test hooks on the sim transport and deployments.
	"internal/nws/proto.SimTransport.SetBlocked": "pair black holes for transport and failover tests: a CutLink partition refuses the send at once, so only this exercises the ack-timeout path",
	"internal/nws/proto/prototest.Teardown":      "shared *test helper package: the teardown check of deployment-building tests",

	// Options kept because a caller outside the package sets a second value.
	"internal/query.WithForecastTTL": "root BenchmarkQueryForecastBatch disables the forecast cache",

	// Product API whose only callers today are tests, each kept for a
	// named reference role or planned caller.
	"internal/metrics.Accuracy":                 "E13's scorer against ground truth, shared by the root benchmark and metrics' unit tests",
	"internal/nws/nameserver.Client.Unregister": "client half of MsgUnregister; planned caller: a closing role leaving the directory (ROADMAP direction 3)",
	"internal/nws/predict.Battery.Methods":      "reference oracle predict.Run is tested against: names the battery's members",
	"internal/nws/predict.Battery.MethodError":  "reference oracle predict.Run is tested against: E12's per-member error column",
	"internal/nws/predict.Battery.Forecast":     "reference oracle predict.Run is tested against: the streaming battery's answer",
	"internal/simnet.Topology.SharedResources":  "reference oracle deploy's validator is tested against: pairwise shared resources",
}

type reachDecl struct {
	key  string // reachAllow key
	pkg  string // declaring package directory
	name string
	recv string // receiver type name for methods
	pos  token.Pos
}

type reachFile struct {
	dir  string
	file *ast.File
}

// parseNonTest parses every non-test Go file of the repository,
// bench/ included.
func parseNonTest(t *testing.T, fset *token.FileSet) []reachFile {
	t.Helper()
	var files []reachFile
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		files = append(files, reachFile{dir: filepath.ToSlash(filepath.Dir(path)), file: f})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

func TestExportedSymbolsReachable(t *testing.T) {
	fset := token.NewFileSet()
	files := parseNonTest(t, fset)

	// Declarations under internal/.
	var decls []reachDecl
	for _, rf := range files {
		if !strings.HasPrefix(rf.dir, "internal/") {
			continue
		}
		add := func(id *ast.Ident, recv string) {
			if !id.IsExported() {
				return
			}
			key := rf.dir + "." + id.Name
			if recv != "" {
				key = rf.dir + "." + recv + "." + id.Name
			}
			decls = append(decls, reachDecl{key: key, pkg: rf.dir, name: id.Name, recv: recv, pos: id.Pos()})
		}
		for _, d := range rf.file.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				recv := ""
				if d.Recv != nil && len(d.Recv.List) == 1 {
					recv = recvTypeName(d.Recv.List[0].Type)
				}
				add(d.Name, recv)
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch spec := spec.(type) {
					case *ast.TypeSpec:
						add(spec.Name, "")
					case *ast.ValueSpec:
						for _, id := range spec.Names {
							add(id, "")
						}
					}
				}
			}
		}
	}

	// References from every non-test file: bare identifiers per package
	// directory, pkg.Name selectors per imported directory, and selector
	// names anywhere (methods). Declaring identifiers are skipped by
	// position, and so is a method's receiver type: a type's own methods
	// do not reach it.
	declPos := map[token.Pos]bool{}
	for _, d := range decls {
		declPos[d.pos] = true
	}
	bare := map[string]map[string]bool{}      // dir -> identifier
	qualified := map[string]map[string]bool{} // imported dir -> Name
	selected := map[string]bool{}             // .Name anywhere
	mark := func(m map[string]map[string]bool, dir, name string) {
		if m[dir] == nil {
			m[dir] = map[string]bool{}
		}
		m[dir][name] = true
	}
	for _, rf := range files {
		imports := map[string]string{} // local name -> directory
		for _, im := range rf.file.Imports {
			p, _ := strconv.Unquote(im.Path.Value)
			if !strings.HasPrefix(p, "nwsenv/") {
				continue
			}
			dir := strings.TrimPrefix(p, "nwsenv/")
			local := dir[strings.LastIndex(dir, "/")+1:]
			if im.Name != nil {
				local = im.Name.Name
			}
			imports[local] = dir
		}
		ast.Inspect(rf.file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if n.Recv != nil {
					ast.Inspect(n.Recv, func(r ast.Node) bool {
						if id, ok := r.(*ast.Ident); ok {
							declPos[id.Pos()] = true
						}
						return true
					})
				}
			case *ast.SelectorExpr:
				selected[n.Sel.Name] = true
				if x, ok := n.X.(*ast.Ident); ok {
					if dir, ok := imports[x.Name]; ok {
						mark(qualified, dir, n.Sel.Name)
					}
				}
			case *ast.Ident:
				if !declPos[n.Pos()] {
					mark(bare, rf.dir, n.Name)
				}
			}
			return true
		})
	}

	var unreachable []string
	seen := map[string]bool{}
	for _, d := range decls {
		used := false
		if d.recv != "" {
			used = selected[d.name]
		} else {
			used = bare[d.pkg][d.name] || qualified[d.pkg][d.name]
		}
		seen[d.key] = true
		switch _, allowed := reachAllow[d.key]; {
		case !used && !allowed:
			unreachable = append(unreachable, d.key)
		case used && allowed:
			t.Errorf("%s is on reachAllow but a non-test file references it: drop the entry", d.key)
		}
	}
	for key := range reachAllow {
		if !seen[key] {
			t.Errorf("%s is on reachAllow but no longer declared: drop the entry", key)
		}
	}
	sort.Strings(unreachable)
	for _, key := range unreachable {
		t.Errorf("%s is exported but referenced only from tests (or not at all): delete it, move it beside its test, or add it to reachAllow with a reason", key)
	}
}

// TestMainsLiveUnderCmd: every package main outside the bench/ harness
// is a command under cmd/. A demo belongs in an Example function with
// an // Output: block, which tier-1 executes; a main nothing runs would
// also count as a caller in the audit above.
func TestMainsLiveUnderCmd(t *testing.T) {
	for _, rf := range parseNonTest(t, token.NewFileSet()) {
		if rf.file.Name.Name != "main" || strings.HasPrefix(rf.dir, "cmd/") ||
			rf.dir == "bench" || strings.HasPrefix(rf.dir, "bench/") {
			continue
		}
		t.Errorf("%s holds package main outside cmd/: make it a command or an Example test", rf.dir)
	}
}

// recvTypeName strips the pointer and type parameters off a receiver.
func recvTypeName(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return ""
		}
	}
}
