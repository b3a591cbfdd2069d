package hfast_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

var (
	// goRunLine captures a `go run ./dir` and its arguments up to a shell
	// comment, pipe, redirect or background marker.
	goRunLine = regexp.MustCompile(`go run (\./\S*)([^#|&>;]*)`)
	flagArg   = regexp.MustCompile(`(?:^|\s)-([A-Za-z][\w-]*)`)
)

// flagDefiners are the flag and FlagSet methods whose name argument is a
// flag's name: the first argument, or the second for the *Var forms.
var flagDefiners = map[string]bool{
	"Bool": true, "BoolFunc": true, "BoolVar": true, "Duration": true, "DurationVar": true,
	"Float64": true, "Float64Var": true, "Func": true, "Int": true, "IntVar": true,
	"Int64": true, "Int64Var": true, "String": true, "StringVar": true, "TextVar": true,
	"Uint": true, "UintVar": true, "Uint64": true, "Uint64Var": true, "Var": true,
}

// readmeCommands returns the `go run` lines of README.md's fenced blocks,
// with backslash-continued lines joined.
func readmeCommands(t *testing.T) []string {
	t.Helper()
	data, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	var cmds []string
	fenced, joined := false, ""
	for _, line := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(line, "```") {
			fenced, joined = !fenced, ""
			continue
		}
		if !fenced {
			continue
		}
		if cont, ok := strings.CutSuffix(line, `\`); ok {
			joined += cont
			continue
		}
		line, joined = joined+line, ""
		if strings.Contains(line, "go run ") {
			cmds = append(cmds, line)
		}
	}
	return cmds
}

// mainFlags parses dir's non-test files and reports whether they form a
// package main, with the flag names the package defines.
func mainFlags(t *testing.T, dir string) (bool, map[string]bool) {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	isMain, flags := false, map[string]bool{}
	for _, path := range paths {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		if f.Name.Name != "main" {
			return false, nil
		}
		isMain = true
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok || !flagDefiners[sel.Sel.Name] {
				return true
			}
			i := 0
			if strings.HasSuffix(sel.Sel.Name, "Var") {
				i = 1
			}
			if i < len(call.Args) {
				if lit, ok := call.Args[i].(*ast.BasicLit); ok && lit.Kind == token.STRING {
					if name, err := strconv.Unquote(lit.Value); err == nil {
						flags[name] = true
					}
				}
			}
			return true
		})
	}
	return isMain, flags
}

// TestReadmeCommandsRun fails on a README `go run` whose directory is not
// a package main, or that passes a flag the package does not define.
func TestReadmeCommandsRun(t *testing.T) {
	covered := map[string]bool{}
	for _, line := range readmeCommands(t) {
		for _, m := range goRunLine.FindAllStringSubmatch(line, -1) {
			dir := filepath.Clean(m[1])
			covered[strings.SplitN(filepath.ToSlash(dir), "/", 2)[0]] = true
			isMain, flags := mainFlags(t, dir)
			if !isMain {
				t.Errorf("README runs %s, which is not a package main: %s", m[1], line)
				continue
			}
			for _, f := range flagArg.FindAllStringSubmatch(m[2], -1) {
				if !flags[f[1]] {
					t.Errorf("README passes -%s to %s, which defines no such flag: %s", f[1], m[1], line)
				}
			}
		}
	}
	for _, want := range []string{"cmd", "bench", "examples"} {
		if !covered[want] {
			t.Errorf("README's fenced blocks run nothing under %s/", want)
		}
	}
}
