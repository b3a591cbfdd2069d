package hfast_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// deadExportsAllowed says why each export only tests refer to stays; any
// other goes, back with its first caller. A bare name covers a method.
var deadExportsAllowed = map[string]string{
	"Less":                        "heap.Interface, called by container/heap",
	"Swap":                        "heap.Interface, called by container/heap",
	"MarshalJSON":                 "json.Marshaler, called by encoding/json",
	"UnmarshalJSON":               "json.Unmarshaler, called by encoding/json",
	"internal/ipm.MergeDeltas":    "round-trip oracle: SplitDeltas is pinned against it byte for byte",
	"internal/mpi.WithEagerLimit": "rendezvous sends; ROADMAP item 7(v) runs every skeleton under it",
	"internal/pipeline.Pipeline.CachedArtifacts": "cache-size oracle: pipeline, server and experiments tests check that a failed fold stores nothing",
	"internal/treenet.Tree.Depth":                "route-length oracle: netsim's router_test bounds every tree route by it (ROADMAP item 13(i))",
}

// deadExports lists the top-level exports and methods (dir.Type.Method)
// under root whose name no non-test file spells outside its declaration.
// Names match without types: the census can miss, never accuse wrongly.
func deadExports(t *testing.T, root string) []string {
	var keys []string
	used := map[string]bool{}
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			if err == nil && path != root && (d.Name() == "testdata" || d.Name()[0] == '.') {
				return filepath.SkipDir
			}
			return err
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		dir, _ := filepath.Rel(root, filepath.Dir(path))
		if dir == "." {
			dir = f.Name.Name
		}
		own := map[*ast.Ident]bool{}
		declare := func(id *ast.Ident, key string) {
			if own[id] = true; id.IsExported() {
				keys = append(keys, filepath.ToSlash(dir)+"."+key)
			}
		}
		for _, d := range f.Decls {
			if fn, ok := d.(*ast.FuncDecl); ok {
				key := fn.Name.Name
				if fn.Recv != nil {
					key = strings.TrimPrefix(types.ExprString(fn.Recv.List[0].Type), "*") + "." + key
				}
				declare(fn.Name, key)
				continue
			}
			for _, s := range d.(*ast.GenDecl).Specs {
				switch s := s.(type) {
				case *ast.TypeSpec:
					declare(s.Name, s.Name.Name)
				case *ast.ValueSpec:
					for _, id := range s.Names {
						declare(id, id.Name)
					}
				}
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && !own[id] {
				used[id.Name] = true
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return slices.DeleteFunc(keys, func(key string) bool { return used[key[strings.LastIndexByte(key, '.')+1:]] })
}

// TestNoDeadExports fails on an unexplained dead export and on a stale
// allowlist entry, once the census has found its fixture's dead export.
func TestNoDeadExports(t *testing.T) {
	if got := deadExports(t, filepath.Join("testdata", "census")); !slices.Equal(got, []string{"lib.Dead"}) {
		t.Fatalf("the census of its fixture reports %v, want [lib.Dead]", got)
	}
	hit := map[string]bool{}
	for _, key := range deadExports(t, ".") {
		name := key[strings.LastIndexByte(key, '.')+1:]
		hit[key], hit[name] = true, true
		if deadExportsAllowed[key] == "" && deadExportsAllowed[name] == "" {
			t.Errorf("%s is exported but only tests refer to it: delete it, unexport it, or allow it with a reason", key)
		}
	}
	for key := range deadExportsAllowed {
		if !hit[key] {
			t.Errorf("allowlist entry %s names no dead export: drop it", key)
		}
	}
}
