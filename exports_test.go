package repro

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path"
	"path/filepath"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// keptExports are exported names that no non-test file uses, kept on
// purpose: other packages' tests use them as tooling or as the
// reference an implementation is checked against. Each key is the
// declaration's qualified name (package.Name, package.Type.Method or
// package.Type.Field) and each value says why.
var keptExports = map[string]string{
	"relation.Map.VerifyIndexes": "index-consistency check the relation, view and fivm tests run after each step",
	"relation.Map.IndexDumps":    "index contents the relation, view and fivm tests compare across commit paths",
	"relation.Map.IndexCount":    "index-registration count the relation and view tests pin",
	"relation.Map.Negate":        "the delete batch of an insert batch, for the relation and view tests",
	"value.Schema.Minus":         "schema algebra of the naive-join reference in the relation tests",
	"value.Tuple.Concat":         "tuple concatenation of the naive-join reference in the relation tests",
	"view.Tree.Source":           "the maintained input relation the view and fivm tests re-evaluate from",
	"cluster.Router.MergedModel": "in-process merged read the cluster tests compare against",
	"dataset.RoundRobinStream":   "the update stream the baseline equivalence test replays",
	"client.WithBackoff":         "retry pacing the client tests shorten to keep retries fast",
	"ring.CountLift":             "the count ring's lift, used by the ring, relation and view tests",
	"ring.RelSingle":             "lift of the reference relational ring the relation probe tests use",
	"ring.RelVal.Scalar":         "constant coefficient of the reference relational ring, read by its tests",
	"ring.NewMatrixRing":         "reference matrix ring of the matrix-chain tests",
	"ring.MatrixRing.FromRows":   "reference matrix constructor of the matrix-chain tests",
	"ring.MatrixRing.Dim":        "dimension of the reference matrix ring, read by the matrix-chain tests",
	"ring.Matrix.Dim":            "dimension of a reference matrix, read by the matrix-chain tests",
	"ring.Matrix.Equal":          "reference matrix comparison of the matrix-chain tests",
	"ring.Relational":            "the reference relational ring the ring and relation tests check joins against",
	"ring.RelVal.Get":            "coefficient lookup of the reference relational ring, read by its tests",
	"ring.RelVal.Equal":          "comparison of the reference relational ring's values, for its tests",
	"ring.RelCovar.Equal":        "payload equality the ring and fivm tests compare engines and references by",
	"relation.Map.Equal":         "relation equality the relation tests compare fast and naive joins by",
	"value.Tuple.Equal":          "tuple equality of the naive-join reference in the relation tests",
	"value.Tuple.Project":        "tuple projection of the naive-join reference in the relation tests",
	"view.Tree.Order":            "the variable order the fivm tests rebuild an engine's tree over",
	"view.Node.View":             "a node's view, which the view and fivm tests walk to verify indexes",
	"fivm.Engine.Result":         "the live result relation the fivm tests compare engine states by",
	"fivm.Engine.InitWeighted":   "bulk load of explicit payloads, for the matrix-chain example and the covar tests",
	"baseline.FlatIVM.Count":     "the flat baseline's count, which the baseline tests check against F-IVM",
	"baseline.FlatIVM.Sum":       "the flat baseline's sums, which the baseline tests check against F-IVM",
	"baseline.FlatIVM.Prod":      "the flat baseline's products, which the baseline tests check against F-IVM",
	"baseline.Reeval.Payload":    "the re-evaluation baseline's result, which the baseline tests check against F-IVM",
	"client.Client.Predict":      "the typed /v1/predict read the cluster tests compare router and worker answers with",
	"faultnet.NewRandSchedule":   "seeded fault schedule of the cluster chaos test",
	"faultnet.Start":             "starts the fault-injecting proxy of the cluster chaos test",
	"faultnet.Proxy.URL":         "the proxy address the cluster chaos test points the router at",
	"faultnet.Proxy.Partition":   "full-partition switch of the cluster chaos test",
	"faultnet.Proxy.Stats":       "the proxy's fault counts the cluster chaos test reports",
	"ring.LimitCategories":       "lowers the category dictionary's bound for the serve test of a full dictionary",
}

// TestEveryExportHasACaller keeps the module's exported surface to what
// is used. It type-checks every non-test file (cmd/ and bench/ count)
// and resolves each identifier to the object it names, so a use counts
// for that declaration only, never for another of the same name. Every
// exported declaration of a non-test file must be used by some non-test
// file, or be listed in keptExports with a reason:
//
//   - a top-level func, type, const or var: named anywhere but at its
//     own declaration and its own methods' receivers;
//   - a method: called (or taken as a method value), or implementing an
//     interface method some non-test file calls — the generic rings,
//     codecs and slabs included — or a standard-library interface's,
//     which the standard library calls (String, Error, Write,
//     MarshalJSON, ...);
//   - a struct field of a top-level type: read, embedded, or carrying a
//     json tag (encoding/json reads it by reflection). Setting a field
//     in a composite literal or an assignment is not a read.
//
// CI runs it with the doc-link checker.
func TestEveryExportHasACaller(t *testing.T) {
	decls, err := exportedDecls(".")
	if err != nil {
		t.Fatal(err)
	}
	var dead []string
	found := map[string]bool{}
	for _, d := range decls {
		found[d.name] = true
		if keptExports[d.name] != "" {
			if d.used {
				t.Errorf("keptExports lists %s, which a non-test file uses; drop it from the list", d.name)
			}
			continue
		}
		if !d.used {
			dead = append(dead, d.pos.String()+": "+d.name+" is exported but no non-test file "+d.missing)
		}
	}
	sort.Strings(dead)
	for _, d := range dead {
		t.Error(d)
	}
	for name := range keptExports {
		if !found[name] {
			t.Errorf("keptExports lists %s, which no non-test file declares; drop it from the list", name)
		}
	}
}

// exportDecl is one exported declaration the lint checks.
type exportDecl struct {
	name    string // qualified: package.Name, package.Type.Member
	pos     token.Position
	used    bool
	missing string // what a use would be, for the report
}

// exportedDecls parses and type-checks every package under root
// (skipping dot directories and testdata) from its non-test files,
// importing the standard library from its export data, and returns the
// exported declarations, each marked used or not.
func exportedDecls(root string) ([]*exportDecl, error) {
	fset := token.NewFileSet()
	files := map[string][]*ast.File{} // by import path
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if p != root && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, filepath.Dir(p))
		if err != nil {
			return err
		}
		ip := path.Join(modulePath, filepath.ToSlash(rel))
		files[ip] = append(files[ip], f)
		return nil
	})
	if err != nil {
		return nil, err
	}
	info := &types.Info{
		Defs: map[*ast.Ident]types.Object{},
		Uses: map[*ast.Ident]types.Object{},
	}
	std := importer.Default()
	pkgs := map[string]*types.Package{}
	var imp importerFunc
	imp = func(ip string) (*types.Package, error) {
		if p, ok := pkgs[ip]; ok {
			return p, nil
		}
		if _, ok := files[ip]; !ok {
			return std.Import(ip)
		}
		conf := types.Config{Importer: imp}
		p, err := conf.Check(ip, fset, files[ip], info)
		if err != nil {
			return nil, err
		}
		pkgs[ip] = p
		return p, nil
	}
	for ip := range files {
		if _, err := imp(ip); err != nil {
			return nil, err
		}
	}
	return markUses(fset, files, info, pkgs), nil
}

// importerFunc adapts a function to types.Importer.
type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// modulePath is go.mod's module path, the prefix of every package's
// import path.
const modulePath = "repro"

// markUses collects the exported declarations of files and marks the
// used ones (see TestEveryExportHasACaller for what counts).
func markUses(fset *token.FileSet, files map[string][]*ast.File, info *types.Info, pkgs map[string]*types.Package) []*exportDecl {
	// notUses are identifiers that name an object without using it: a
	// method receiver's type, a field set by a composite literal key or
	// assigned to.
	notUses := map[*ast.Ident]bool{}
	for _, pf := range files {
		for _, f := range pf {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.FuncDecl:
					if n.Recv != nil {
						ast.Inspect(n.Recv, func(n ast.Node) bool {
							if id, ok := n.(*ast.Ident); ok {
								notUses[id] = true
							}
							return true
						})
					}
				case *ast.CompositeLit:
					for _, e := range n.Elts {
						if kv, ok := e.(*ast.KeyValueExpr); ok {
							if id, ok := kv.Key.(*ast.Ident); ok {
								if _, field := info.Uses[id].(*types.Var); field {
									notUses[id] = true
								}
							}
						}
					}
				case *ast.AssignStmt:
					if n.Tok == token.ASSIGN {
						for _, l := range n.Lhs {
							if sel, ok := l.(*ast.SelectorExpr); ok {
								notUses[sel.Sel] = true
							}
						}
					}
				}
				return true
			})
		}
	}
	used := map[types.Object]bool{}
	called := map[types.Type][]string{} // interface -> its methods called
	for id, obj := range info.Uses {
		if notUses[id] {
			continue
		}
		obj = origin(obj)
		used[obj] = true
		if fn, ok := obj.(*types.Func); ok {
			if recv := fn.Type().(*types.Signature).Recv(); recv != nil && types.IsInterface(recv.Type()) {
				called[recv.Type()] = append(called[recv.Type()], fn.Name())
			}
		}
	}
	// A standard-library interface's methods are called by the
	// standard library.
	for _, n := range stdInterfaces(pkgs) {
		it := n.Underlying().(*types.Interface)
		for i := 0; i < it.NumMethods(); i++ {
			called[n] = append(called[n], it.Method(i).Name())
		}
	}
	// A called interface method uses the method each implementing type
	// runs for it: its own, or one promoted from an embedded field.
	for _, p := range pkgs {
		for _, name := range p.Scope().Names() {
			tn, ok := p.Scope().Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() || types.IsInterface(tn.Type()) {
				continue
			}
			recv := tn.Type().(*types.Named)
			ms := types.NewMethodSet(types.NewPointer(recv))
			for iface, names := range called {
				if !implements(recv, ms, iface) {
					continue
				}
				for _, m := range names {
					if sel := ms.Lookup(p, m); sel != nil {
						used[origin(sel.Obj())] = true
					}
				}
			}
		}
	}

	var decls []*exportDecl
	add := func(name string, pos token.Pos, used bool, missing string) {
		decls = append(decls, &exportDecl{name: name, pos: fset.Position(pos), used: used, missing: missing})
	}
	for _, pf := range files {
		for _, f := range pf {
			pkg := f.Name.Name
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					if !d.Name.IsExported() {
						continue
					}
					fn := info.Defs[d.Name].(*types.Func)
					if d.Recv == nil {
						add(pkg+"."+d.Name.Name, d.Name.Pos(), used[fn], "references it")
						continue
					}
					add(pkg+"."+recvName(fn)+"."+d.Name.Name, d.Name.Pos(), used[fn],
						"calls it or an interface method it implements")
				case *ast.GenDecl:
					for _, s := range d.Specs {
						switch s := s.(type) {
						case *ast.TypeSpec:
							if s.Name.IsExported() {
								add(pkg+"."+s.Name.Name, s.Name.Pos(), used[info.Defs[s.Name]], "references it")
							}
							st, ok := s.Type.(*ast.StructType)
							if !ok {
								continue
							}
							for _, fld := range st.Fields.List {
								if len(fld.Names) == 0 || jsonTagged(fld) {
									continue // embedded, or read by reflection
								}
								for _, id := range fld.Names {
									if id.IsExported() {
										add(pkg+"."+s.Name.Name+"."+id.Name, id.Pos(), used[info.Defs[id]], "reads it")
									}
								}
							}
						case *ast.ValueSpec:
							for _, id := range s.Names {
								if id.IsExported() {
									add(pkg+"."+id.Name, id.Pos(), used[info.Defs[id]], "references it")
								}
							}
						}
					}
				}
			}
		}
	}
	return decls
}

// origin maps an instantiated method or field to its generic
// declaration.
func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

// recvName is the name of method fn's receiver type.
func recvName(fn *types.Func) string {
	t := fn.Type().(*types.Signature).Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	return t.(*types.Named).Obj().Name()
}

// stdInterfaces is every named interface with methods that the
// standard-library packages the module imports (directly or not)
// declare, and error.
func stdInterfaces(pkgs map[string]*types.Package) []*types.Named {
	out := []*types.Named{types.Universe.Lookup("error").Type().(*types.Named)}
	seen := map[*types.Package]bool{}
	var walk func(p *types.Package)
	walk = func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		if _, mod := pkgs[p.Path()]; !mod {
			for _, name := range p.Scope().Names() {
				tn, ok := p.Scope().Lookup(name).(*types.TypeName)
				if !ok || !tn.Exported() {
					continue
				}
				if n, ok := tn.Type().(*types.Named); ok {
					if it, ok := n.Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
						out = append(out, n)
					}
				}
			}
		}
		for _, q := range p.Imports() {
			walk(q)
		}
	}
	for _, p := range pkgs {
		walk(p)
	}
	return out
}

// implements reports whether recv or a pointer to it, whose method set
// is ms, implements iface. A generic type or interface, or an interface
// literal (which may mention its function's type parameters), cannot be
// checked without type arguments, so there the method names decide: ms
// must hold every method iface declares.
func implements(recv *types.Named, ms *types.MethodSet, iface types.Type) bool {
	it := iface.Underlying().(*types.Interface)
	if n, ok := iface.(*types.Named); ok && n.TypeParams().Len() == 0 && n.TypeArgs().Len() == 0 && recv.TypeParams().Len() == 0 {
		return types.Implements(types.NewPointer(recv), it)
	}
	for i := 0; i < it.NumMethods(); i++ {
		if ms.Lookup(it.Method(i).Pkg(), it.Method(i).Name()) == nil {
			return false
		}
	}
	return true
}

// jsonTagged reports whether encoding/json reads fld by reflection.
func jsonTagged(fld *ast.Field) bool {
	if fld.Tag == nil {
		return false
	}
	raw, err := strconv.Unquote(fld.Tag.Value)
	if err != nil {
		return false
	}
	tag, ok := reflect.StructTag(raw).Lookup("json")
	return ok && tag != "-"
}
