package repro

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// keptExports are exported names that no non-test file references, kept
// on purpose: other packages' tests use them as tooling or as the
// reference an implementation is checked against. Each entry says why.
var keptExports = map[string]string{
	"VerifyIndexes":    "relation.Map: index-consistency check the relation, view and fivm tests run after each step",
	"IndexDumps":       "relation.Map: index contents the relation, view and fivm tests compare across commit paths",
	"IndexCount":       "relation.Map: index-registration count the relation and view tests pin",
	"Negate":           "relation.Map: the delete batch of an insert batch, for the relation and view tests",
	"Minus":            "value.Schema: schema algebra of the naive-join reference in the relation tests",
	"Concat":           "value.Tuple: tuple concatenation of the naive-join reference in the relation tests",
	"Source":           "view.Tree: the maintained input relation the view and fivm tests re-evaluate from",
	"MergedModel":      "cluster.Router: in-process merged read the cluster tests compare against",
	"RoundRobinStream": "dataset: the update stream the baseline equivalence test replays",
	"WithBackoff":      "client: retry pacing the client tests shorten to keep retries fast",
	"CountLift":        "ring: the count ring's lift, used by the ring, relation and view tests",
	"RelSingle":        "ring: lift of the reference relational ring the relation probe tests use",
	"Scalar":           "ring.RelVal: constant coefficient of the reference relational ring, read by its tests",
	"NewMatrixRing":    "ring: reference matrix ring of the matrix-chain tests",
	"FromRows":         "ring: reference matrix constructor of the matrix-chain tests",
	"NewRandSchedule":  "faultnet: seeded fault schedule of the cluster chaos test",
	"Partition":        "faultnet: full-partition switch of the cluster chaos test",
	"LimitCategories":  "ring: lowers the category dictionary's bound for the serve test of a full dictionary",
}

// TestEveryExportHasACaller keeps the module's exported surface to what
// is used: every exported top-level func, method, type, const and var of
// a non-test file must be referenced, as an identifier, by some non-test
// file (cmd/ and bench/ count) other than at its own declaration, or be
// listed in keptExports with a reason. The check is by name, so a dead
// method whose name is also used elsewhere can slip through; a name some
// non-test file spells is never reported. A method that only the
// standard library calls through an interface (a String or MarshalJSON
// no file names) would need an allowlist entry. CI runs it with the
// doc-link checker.
func TestEveryExportHasACaller(t *testing.T) {
	fset := token.NewFileSet()
	type decl struct {
		name string
		pos  token.Position
	}
	var decls []decl
	declIdents := map[*ast.Ident]bool{}
	var files []*ast.File
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
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		files = append(files, f)
		add := func(id *ast.Ident) {
			declIdents[id] = true
			if id.IsExported() {
				decls = append(decls, decl{id.Name, fset.Position(id.Pos())})
			}
		}
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				add(d.Name)
			case *ast.GenDecl:
				for _, s := range d.Specs {
					switch s := s.(type) {
					case *ast.TypeSpec:
						add(s.Name)
					case *ast.ValueSpec:
						for _, id := range s.Names {
							add(id)
						}
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(decls) == 0 {
		t.Fatal("found no exported declarations")
	}
	used := map[string]bool{}
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && !declIdents[id] {
				used[id.Name] = true
			}
			return true
		})
	}
	var dead []string
	for _, d := range decls {
		if used[d.name] || keptExports[d.name] != "" {
			continue
		}
		dead = append(dead, d.pos.String()+": "+d.name)
	}
	sort.Strings(dead)
	for _, d := range dead {
		t.Errorf("%s is exported but no non-test file references it", d)
	}
	for name := range keptExports {
		if used[name] {
			t.Errorf("keptExports lists %s, which a non-test file references; drop it from the list", name)
		}
	}
}
