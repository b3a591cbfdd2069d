package hfast_test

import (
	"cmp"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
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
}

// walkGo parses every Go file under root, comments included, skipping
// testdata and dot directories, and hands each to fn with its directory
// relative to root (the package name for root itself).
func walkGo(t *testing.T, root string, fn func(path, dir string, f *ast.File)) {
	t.Helper()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			if err == nil && path != root && (d.Name() == "testdata" || d.Name()[0] == '.') {
				return filepath.SkipDir
			}
			return err
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.SkipObjectResolution|parser.ParseComments)
		if err != nil {
			return err
		}
		dir, _ := filepath.Rel(root, filepath.Dir(path))
		if dir == "." {
			dir = f.Name.Name
		}
		fn(path, filepath.ToSlash(dir), f)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// deadExports lists the top-level exports and methods (dir.Type.Method)
// under root whose name no non-test file spells outside its declaration.
// A method's receiver type is part of the method's declaration, so a
// type that only its own methods name is dead. Names match without
// types: the census can miss, never accuse wrongly.
func deadExports(t *testing.T, root string) []string {
	var keys []string
	used := map[string]bool{}
	walkGo(t, root, func(path, dir string, f *ast.File) {
		if strings.HasSuffix(path, "_test.go") {
			return
		}
		own := map[*ast.Ident]bool{}
		declare := func(id *ast.Ident, key string) {
			if own[id] = true; id.IsExported() {
				keys = append(keys, dir+"."+key)
			}
		}
		for _, d := range f.Decls {
			if fn, ok := d.(*ast.FuncDecl); ok {
				key := fn.Name.Name
				if fn.Recv != nil {
					recv := fn.Recv.List[0].Type
					key = strings.TrimPrefix(types.ExprString(recv), "*") + "." + key
					ast.Inspect(recv, func(n ast.Node) bool {
						if id, ok := n.(*ast.Ident); ok {
							own[id] = true
						}
						return true
					})
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
	})
	return slices.DeleteFunc(keys, func(key string) bool { return used[key[strings.LastIndexByte(key, '.')+1:]] })
}

// TestNoDeadExports fails on an unexplained dead export and on a stale
// allowlist entry, once the census has found its fixture's dead export.
func TestNoDeadExports(t *testing.T) {
	if got := deadExports(t, filepath.Join("testdata", "census")); !slices.Equal(got, []string{"lib.Dead", "lib.Adapter"}) {
		t.Fatalf("the census of its fixture reports %v, want [lib.Dead lib.Adapter]", got)
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

// knobsAllowed says what each pool and package-level tuning constant
// buys. A knob earns its line by a measured number, or by being a bound,
// a tolerance or a protocol value rather than a tuning choice; any other
// goes. The ablations removed the knob on a copy and ran the ledger
// (go run ./bench, 2 cores, go1.24.0, one to two pairs of 4–5 s runs).
var knobsAllowed = map[string]string{
	"internal/netsim.enginePool":  "without it netsim_replay goes from 0.38–0.56 to 12–13 MB/op (two ablations); its throughput moved within run-to-run noise",
	"internal/server.splitters":   "without it stream_replay goes 0.077 → 0.394 MB/op and stream_ingest 0.355 → 0.666",
	"internal/ipm.scratchPool":    "without it provision_cold goes 4.33 → 6.90 MB/op",
	"internal/pipeline.pairLists": "without it stream_ingest goes 0.217 → 0.300 MB/op (two ablations)",
	"internal/ipm.wireChunk":      "no ledger row moves, but hfastsim -app cactus -p 8192 -o f (a 130 MB profile) peaks at 334 MB RSS without it, 209 MB with it",
	"internal/ipm.chunkShift":     "a *Stat stays valid because slot chunks never move; 64 slots is the chunk size, never ablated against others",
	"internal/ipm.wireEntrySize":  "growth hint just over the skeletons' ≈ 140-byte entries, so an encode buffer grows once",
	"internal/ipm.wireRankSize":   "growth hint for one rank's header, so an encode buffer grows once",
	"internal/ipm.wireHeaderSize": "growth hint for the profile header, so an encode buffer grows once",

	"internal/netsim.shardedSolveMin": "pinned by bench/testdata/netsim_golden.json (mesh.p16384.sync's finish_hash moves without the sharded solve); goes with shard.go in ROADMAP item 4",
	"internal/netsim.shardBackoffMax": "pinned by bench/testdata/netsim_golden.json (dropping only the backoff moves mesh.p16384.sync's finish_hash); goes with shard.go in ROADMAP item 4",
	"internal/netsim.maxShardRegions": "bounds the union-find a region hint may size; goes with shard.go in ROADMAP item 4",

	"internal/netsim.completionEpsilon": "numerical tolerance shared with the reference solver; engine_bits.json pins it",
	"internal/netsim.satSlack":          "numerical tolerance of the saturation verdict; engine_bits.json pins it",
	"internal/netsim.rateBand":          "numerical tolerance of the bottleneck rate band; engine_bits.json pins it",

	"internal/netsim.treeFanout":        "model parameter of the §2.4 tree; the -t netsim tree column in all.golden pins it",
	"internal/netsim.treeLinkBandwidth": "model parameter of the §2.4 tree; the -t netsim tree column in all.golden pins it",
	"internal/netsim.treeHopLatency":    "model parameter of the §2.4 tree; the -t netsim tree column in all.golden pins it",

	"internal/apps.pmemdDecay":          "model parameter of pmemd's distance falloff; the profile goldens pin it",
	"internal/analysis.fullFraction":    "model threshold of the §2.5 case iv test; -t cases pins it",
	"internal/analysis.maxOverAvg":      "model threshold of the §2.5 case iii test; -t cases pins it",
	"internal/trace.phaseEnter":         "model threshold of the phase detector; TestAMRPhasesPinned and -t replan pin it",
	"internal/trace.phaseExit":          "model threshold of the phase detector; TestAMRPhasesPinned and -t replan pin it",
	"internal/experiments.hintsProcs":   "the size of the -t hints study the CLI test runs",
	"internal/experiments.hintsSteps":   "the length of the -t hints study the CLI test runs",
	"internal/meshtorus.maxStackDims":   "keeps AppendDOR's coordinates on the stack for the paper's 2-D/3-D meshes (TestMeshNetRouteAppendAllocs); more dimensions spill, still correct",
	"internal/hfast.maxTreeLevels":      "correctness bound: no degree an int holds needs a deeper block tree",
	"internal/hfast.maxCrossbarPorts":   "input bound: one number in a request or peer artifact cannot size the port table past it",
	"internal/cluster.maxArtifactBytes": "input bound: a fetched peer artifact past it is a protocol error",
	"internal/server.maxRecipeBytes":    "input bound on a peer-fill request body",
	"internal/server.maxStreamSessions": "bound on live stream sessions: a full table sheds new ones with 429",
}

// knobs lists, as dir.name, every package-level sync.Pool and every
// unexported package-level const or var whose value is built from
// numeric literals alone, in the non-test Go under root outside bench/.
func knobs(t *testing.T, root string) []string {
	var keys []string
	walkGo(t, root, func(path, dir string, f *ast.File) {
		if strings.HasSuffix(path, "_test.go") || dir == "bench" || strings.HasPrefix(dir, "bench/") {
			return
		}
		for _, d := range f.Decls {
			gd, ok := d.(*ast.GenDecl)
			if !ok || (gd.Tok != token.CONST && gd.Tok != token.VAR) {
				continue
			}
			for _, spec := range gd.Specs {
				vs := spec.(*ast.ValueSpec)
				for i, id := range vs.Names {
					var val ast.Expr
					if i < len(vs.Values) {
						val = vs.Values[i]
					}
					if isPool(vs.Type) || isPool(val) || (!id.IsExported() && numericLiteral(val)) {
						keys = append(keys, dir+"."+id.Name)
					}
				}
			}
		}
	})
	return keys
}

// isPool reports whether e is the type sync.Pool or a composite of it.
func isPool(e ast.Expr) bool {
	if c, ok := e.(*ast.CompositeLit); ok {
		e = c.Type
	}
	return e != nil && types.ExprString(e) == "sync.Pool"
}

// TestKnobsHaveReasons fails on a pool or tuning constant with no
// knobsAllowed reason and on a stale entry, once the census has found
// its fixture's two knobs.
func TestKnobsHaveReasons(t *testing.T) {
	if got := knobs(t, filepath.Join("testdata", "census")); !slices.Equal(got, []string{"lib.pool", "lib.chunk"}) {
		t.Fatalf("the knob census of its fixture reports %v, want [lib.pool lib.chunk]", got)
	}
	hit := map[string]bool{}
	for _, key := range knobs(t, ".") {
		hit[key] = true
		if knobsAllowed[key] == "" {
			t.Errorf("%s is a pool or tuning constant: ablate it, then delete it or give knobsAllowed the number it buys", key)
		}
	}
	for key := range knobsAllowed {
		if !hit[key] {
			t.Errorf("knobsAllowed entry %s names no pool or tuning constant: drop it", key)
		}
	}
}

// unsetOptionsAllowed says why each option field that nothing outside
// its package sets stays. A dir.Type entry covers every field of Type.
var unsetOptionsAllowed = map[string]string{
	"internal/server.Config.Runner":            "test fake: server tests count and pace profile runs through it",
	"internal/hfast.Params.ActivePortCost":     "unit cost: hfast.CompareCosts takes it from library users",
	"internal/hfast.Params.PassivePortCost":    "unit cost: hfast.CompareCosts takes it from library users",
	"internal/hfast.Params.CollectiveNodeCost": "unit cost: hfast.CompareCosts takes it from library users",
	"internal/hfast.Params.NICCost":            "unit cost: hfast.CompareCosts takes it from library users",
	"internal/netsim.LinkParams":               "bench/netsim.go passes them to the fabric constructors, so making them constants is a benchmark change",
}

// unsetOptions lists, as dir.Type.Field, every exported field of a
// non-test struct type whose name ends in Config, Options, Params or
// Seed that no non-test code outside the type's own package sets — by a
// keyed or positional composite literal, an assignment or an address
// taken. An assignment under an if that tests its target fills a
// default and does not count. Names match without types: the census can
// miss, never accuse wrongly.
func unsetOptions(t *testing.T, root string) []string {
	type field struct{ dir, typ, name string }
	var fields []field
	// dirs that set a field of the name, and that spell a positional
	// literal of a type of the name
	fieldSet, litSet := map[string]map[string]bool{}, map[string]map[string]bool{}
	walkGo(t, root, func(path, dir string, f *ast.File) {
		if strings.HasSuffix(path, "_test.go") {
			return
		}
		set := func(in map[string]map[string]bool, e ast.Expr) {
			name := ""
			switch e := e.(type) {
			case *ast.Ident:
				name = e.Name
			case *ast.SelectorExpr:
				name = e.Sel.Name
			}
			if in[name] == nil {
				in[name] = map[string]bool{}
			}
			in[name][dir] = true
		}
		defaults := map[ast.Node]bool{}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.TypeSpec:
				st, ok := n.Type.(*ast.StructType)
				if !ok || !slices.ContainsFunc([]string{"Config", "Options", "Params", "Seed"}, func(s string) bool { return strings.HasSuffix(n.Name.Name, s) }) {
					break
				}
				for _, fl := range st.Fields.List {
					for _, id := range fl.Names {
						if id.IsExported() {
							fields = append(fields, field{dir, n.Name.Name, id.Name})
						}
					}
				}
			case *ast.IfStmt:
				for _, s := range n.Body.List {
					if as, ok := s.(*ast.AssignStmt); ok && len(as.Lhs) == 1 {
						target := types.ExprString(as.Lhs[0])
						ast.Inspect(n.Cond, func(c ast.Node) bool {
							if e, ok := c.(ast.Expr); ok && types.ExprString(e) == target {
								defaults[as] = true
							}
							return true
						})
					}
				}
			case *ast.CompositeLit:
				for _, e := range n.Elts {
					if kv, ok := e.(*ast.KeyValueExpr); ok {
						set(fieldSet, kv.Key)
					} else {
						set(litSet, n.Type)
					}
				}
			case *ast.AssignStmt:
				for _, l := range n.Lhs {
					if sel, ok := l.(*ast.SelectorExpr); ok && !defaults[n] {
						set(fieldSet, sel)
					}
				}
			case *ast.IncDecStmt:
				if sel, ok := n.X.(*ast.SelectorExpr); ok {
					set(fieldSet, sel)
				}
			case *ast.UnaryExpr:
				if sel, ok := n.X.(*ast.SelectorExpr); ok && n.Op == token.AND {
					set(fieldSet, sel)
				}
			}
			return true
		})
	})
	elsewhere := func(dirs map[string]bool, dir string) bool {
		return len(dirs) > 1 || len(dirs) == 1 && !dirs[dir]
	}
	var keys []string
	for _, fl := range fields {
		if !elsewhere(fieldSet[fl.name], fl.dir) && !elsewhere(litSet[fl.typ], fl.dir) {
			keys = append(keys, fl.dir+"."+fl.typ+"."+fl.name)
		}
	}
	return keys
}

// TestNoUnsetOptions fails on an option field no caller sets that
// unsetOptionsAllowed does not explain, and on a stale entry, once the
// census has found its fixture's unset field: a setting nobody sets is a
// constant, and goes back to an option with its first caller.
func TestNoUnsetOptions(t *testing.T) {
	if got := unsetOptions(t, filepath.Join("testdata", "census")); !slices.Equal(got, []string{"lib.Config.Unset"}) {
		t.Fatalf("the option census of its fixture reports %v, want [lib.Config.Unset]", got)
	}
	hit := map[string]bool{}
	for _, key := range unsetOptions(t, ".") {
		typ := key[:strings.LastIndexByte(key, '.')]
		hit[key], hit[typ] = true, true
		if unsetOptionsAllowed[key] == "" && unsetOptionsAllowed[typ] == "" {
			t.Errorf("%s is an option no caller sets: make it a constant, or allow it with a reason", key)
		}
	}
	for key := range unsetOptionsAllowed {
		if !hit[key] {
			t.Errorf("unsetOptionsAllowed entry %s names no unset option: drop it", key)
		}
	}
}

// numericLiteral reports whether e is built from numeric literals and
// operators alone.
func numericLiteral(e ast.Expr) bool {
	switch e := e.(type) {
	case *ast.BasicLit:
		return e.Kind == token.INT || e.Kind == token.FLOAT
	case *ast.ParenExpr:
		return numericLiteral(e.X)
	case *ast.UnaryExpr:
		return numericLiteral(e.X)
	case *ast.BinaryExpr:
		return numericLiteral(e.X) && numericLiteral(e.Y)
	}
	return false
}

// docSpan matches a backticked span shaped like a Go name: dotted
// identifiers, optionally called.
var docSpan = regexp.MustCompile("`([A-Za-z_][A-Za-z0-9_]*(?:\\.[A-Za-z_][A-Za-z0-9_]*)*)(?:\\(\\))?`")

// docNames lists, as "doc: span", every backticked name in docs that
// resolves to nothing. A name resolves when each dotted part is declared
// in the module (a type, func, method, var, const, field or package), a
// keyword or predeclared name, or a string literal the non-test Go
// spells whole (a -t target, flag, app, route or query parameter); a
// name qualified by an imported standard-library package resolves as is.
// Snake_case spans are ledger rows, metrics and JSON fields, not Go
// names, and a span with a file extension must name a file in the tree.
func docNames(t *testing.T, root string, docs []string) []string {
	declared, pkgs, stdlib, files := map[string]bool{}, map[string]bool{}, map[string]bool{}, map[string]bool{}
	walkGo(t, root, func(path, dir string, f *ast.File) {
		pkgs[f.Name.Name], pkgs[filepath.Base(dir)] = true, true
		for _, im := range f.Imports {
			p, _ := strconv.Unquote(im.Path.Value)
			if !strings.Contains(strings.Split(p, "/")[0], ".") {
				stdlib[p[strings.LastIndexByte(p, '/')+1:]] = true
			}
		}
		test := strings.HasSuffix(path, "_test.go")
		ast.Inspect(f, func(n ast.Node) bool {
			var ids []*ast.Ident
			switch n := n.(type) {
			case *ast.ImportSpec:
				return false
			case *ast.FuncDecl:
				ids = []*ast.Ident{n.Name}
			case *ast.TypeSpec:
				ids = []*ast.Ident{n.Name}
			case *ast.ValueSpec:
				ids = n.Names
			case *ast.Field:
				ids = n.Names
			case *ast.BasicLit:
				if s, err := strconv.Unquote(n.Value); err == nil && n.Kind == token.STRING && !test {
					declared[s] = true
				}
			}
			for _, id := range ids {
				declared[id.Name] = true
			}
			return true
		})
	})
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.Name() == ".git" {
			return cmp.Or(err, filepath.SkipDir)
		}
		files[d.Name()] = true
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var hits []string
	for _, doc := range docs {
		data, err := os.ReadFile(filepath.Join(root, doc))
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range docSpan.FindAllStringSubmatch(string(data), -1) {
			name := m[1]
			parts := strings.Split(name, ".")
			ok := true
			switch ext := parts[len(parts)-1]; {
			case len(parts) > 1 && slices.Contains([]string{"go", "json", "md", "mod", "golden"}, ext):
				ok = files[name]
			case strings.Contains(name, "_"):
			case len(parts) > 1 && stdlib[parts[0]] && !pkgs[parts[0]]:
			default:
				for _, p := range parts {
					ok = ok && (declared[p] || pkgs[p] || stdlib[p] || token.IsKeyword(p) || types.Universe.Lookup(p) != nil)
				}
			}
			if !ok {
				hits = append(hits, doc+": "+name)
			}
		}
	}
	return hits
}

// docNamesAllowed says why each backticked name the docs use that
// resolves to no code stays.
var docNamesAllowed = map[string]string{
	"DELETE":    "the HTTP method that closes a stream session",
	"benchmark": "the change tag that alone may regenerate bench goldens",
	"jq":        "the JSON command-line tool",
	"step999":   "an example region name: region order holds past three digits",
}

// TestDocsNameLiveCode fails on a backticked name in README.md,
// DESIGN.md or EXPERIMENTS.md that the code does not declare and
// docNamesAllowed does not explain, and on a stale entry, once the
// census has found its fixture's two dead names.
func TestDocsNameLiveCode(t *testing.T) {
	fixture := docNames(t, filepath.Join("testdata", "census"), []string{"doc.md"})
	if want := []string{"doc.md: Gone", "doc.md: gone.go"}; !slices.Equal(fixture, want) {
		t.Fatalf("the doc census of its fixture reports %v, want %v", fixture, want)
	}
	hit := map[string]bool{}
	for _, h := range docNames(t, ".", []string{"README.md", "DESIGN.md", "EXPERIMENTS.md"}) {
		name := h[strings.Index(h, ": ")+2:]
		hit[name] = true
		if docNamesAllowed[name] == "" {
			t.Errorf("%s names nothing in the code: reword it, or allow it with a reason", h)
		}
	}
	for name := range docNamesAllowed {
		if !hit[name] {
			t.Errorf("docNamesAllowed entry %s is named by no doc or resolves to code: drop it", name)
		}
	}
}

var (
	// designRef matches a pointer into DESIGN.md: one or more quoted
	// headings, or an experiment ID from its index.
	designRef = regexp.MustCompile(`DESIGN\.md(?:'s)?,?\s+((?:"[^"]+"(?:,?\s+(?:and\s+)?)?)+|[A-Z]+[0-9][\w.]*)`)
	quoted    = regexp.MustCompile(`"([^"]+)"`)
)

// designRefs lists, as "file: target", every pointer into root's
// DESIGN.md, from docs or from a Go comment under root, that names
// neither a heading (a quoted prefix of one) nor an experiment ID.
func designRefs(t *testing.T, root string, docs []string) []string {
	design, err := os.ReadFile(filepath.Join(root, "DESIGN.md"))
	if err != nil {
		t.Fatal(err)
	}
	headings := regexp.MustCompile(`(?m)^#+ (.+)$`).FindAllStringSubmatch(string(design), -1)
	ids := map[string]bool{}
	for _, m := range regexp.MustCompile(`(?m)^\| ([A-Z]+[0-9][\w.]*) \|`).FindAllStringSubmatch(string(design), -1) {
		ids[m[1]] = true
	}
	texts := map[string]string{}
	for _, doc := range docs {
		data, err := os.ReadFile(filepath.Join(root, doc))
		if err != nil {
			t.Fatal(err)
		}
		texts[doc] = string(data)
	}
	walkGo(t, root, func(path, dir string, f *ast.File) {
		name, _ := filepath.Rel(root, path)
		for _, cg := range f.Comments {
			texts[filepath.ToSlash(name)] += cg.Text()
		}
	})
	var hits []string
	for file, text := range texts {
		for _, m := range designRef.FindAllStringSubmatch(text, -1) {
			targets := quoted.FindAllStringSubmatch(m[1], -1)
			if targets == nil && !ids[m[1]] {
				hits = append(hits, file+": "+m[1])
			}
			for _, q := range targets {
				want := strings.Join(strings.Fields(q[1]), " ")
				if !slices.ContainsFunc(headings, func(h []string) bool { return strings.HasPrefix(h[1], want) }) {
					hits = append(hits, file+": "+want)
				}
			}
		}
	}
	slices.Sort(hits)
	return hits
}

// TestDocsNameLiveSections fails on a pointer into DESIGN.md, from
// README.md, EXPERIMENTS.md or a Go comment, to a section or experiment
// the design does not have, once the census has found its fixture's two.
func TestDocsNameLiveSections(t *testing.T) {
	fixture := designRefs(t, filepath.Join("testdata", "census"), []string{"doc.md"})
	if want := []string{"doc.md: Dead section", "lib.go: X2"}; !slices.Equal(fixture, want) {
		t.Fatalf("the section census of its fixture reports %v, want %v", fixture, want)
	}
	for _, h := range designRefs(t, ".", []string{"README.md", "EXPERIMENTS.md"}) {
		t.Errorf("%s names no DESIGN.md heading or experiment ID", h)
	}
}

// fuzzStep matches a CI step that fuzzes one target of one package:
// go test ./internal/ipm -run '^$' -fuzz FuzzDecodeDelta.
var fuzzStep = regexp.MustCompile(`go test \./(\S+) .*-fuzz (\w+)`)

// unfuzzed holds the Fuzz targets of the test files under root, as
// dir.Name, to the steps of the workflow ci: unrun lists the targets no
// step fuzzes, unknown the steps that fuzz a target their package lacks.
func unfuzzed(t *testing.T, root string, ci []byte) (unrun, unknown []string) {
	declared := map[string]bool{}
	walkGo(t, root, func(path, dir string, f *ast.File) {
		if !strings.HasSuffix(path, "_test.go") {
			return
		}
		for _, d := range f.Decls {
			if fn, ok := d.(*ast.FuncDecl); ok && fn.Recv == nil && strings.HasPrefix(fn.Name.Name, "Fuzz") {
				declared[dir+"."+fn.Name.Name] = true
			}
		}
	})
	run := map[string]bool{}
	for _, m := range fuzzStep.FindAllSubmatch(ci, -1) {
		key := string(m[1]) + "." + string(m[2])
		run[key] = true
		if !declared[key] {
			unknown = append(unknown, key)
		}
	}
	for key := range declared {
		if !run[key] {
			unrun = append(unrun, key)
		}
	}
	slices.Sort(unrun)
	slices.Sort(unknown)
	return unrun, unknown
}

// TestEveryFuzzTargetRunsInCI fails on a fuzz target no CI step fuzzes,
// which would never leave its seed corpus, and on a step that names a
// target its package lacks, which fuzzes nothing and still passes; once
// the census has found its fixture's one of each.
func TestEveryFuzzTargetRunsInCI(t *testing.T) {
	fixture := []byte("run: go test ./lib -run '^$' -fuzz FuzzRun\nrun: go test ./lib -run '^$' -fuzz FuzzGone -fuzztime 10s\n")
	unrun, unknown := unfuzzed(t, filepath.Join("testdata", "census"), fixture)
	if !slices.Equal(unrun, []string{"lib.FuzzUnrun"}) || !slices.Equal(unknown, []string{"lib.FuzzGone"}) {
		t.Fatalf("the fuzz census of its fixture reports unrun %v and unknown %v, want [lib.FuzzUnrun] and [lib.FuzzGone]", unrun, unknown)
	}
	ci, err := os.ReadFile(filepath.Join(".github", "workflows", "ci.yml"))
	if err != nil {
		t.Fatal(err)
	}
	unrun, unknown = unfuzzed(t, ".", ci)
	for _, key := range unrun {
		t.Errorf("fuzz target %s has no -fuzz step in ci.yml", key)
	}
	for _, key := range unknown {
		t.Errorf("ci.yml fuzzes %s, which no test file declares", key)
	}
}
