package lcp_test

import (
	"encoding/json"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// ledgerFiles are the benchmark ledgers whose rows record the go test
// command that measured them.
var ledgerFiles = []string{
	"BENCH_dist.json", "BENCH_engine.json", "BENCH_graph.json",
	"BENCH_partition.json", "BENCH_serve.json", "BENCH_transport.json",
}

var benchIdent = regexp.MustCompile(`Benchmark[A-Za-z0-9_]*`)

// TestBenchLedgerCommands keeps every recorded ledger command runnable:
// each &&-separated part is `go test … -bench=<pattern> <dir>` over an
// existing package, and every benchmark the pattern names is still a
// func in that package's test files. A row whose command is prose, or
// whose benchmark was renamed or deleted, can no longer be re-measured.
func TestBenchLedgerCommands(t *testing.T) {
	for _, file := range ledgerFiles {
		raw, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		var ledger struct {
			Command string `json:"command"`
			Updates []struct {
				Command string `json:"command"`
			} `json:"updates"`
		}
		if err := json.Unmarshal(raw, &ledger); err != nil {
			t.Fatalf("%s: %v", file, err)
		}
		if ledger.Command == "" {
			t.Errorf("%s: no top-level command", file)
		}
		rows := map[string]string{"command": ledger.Command}
		for i, u := range ledger.Updates {
			if u.Command != "" {
				rows[fmt.Sprintf("updates[%d].command", i)] = u.Command
			}
		}
		for where, cmd := range rows {
			for _, part := range strings.Split(cmd, "&&") {
				if err := checkBenchCommand(part); err != nil {
					t.Errorf("%s %s: %q: %v", file, where, strings.TrimSpace(part), err)
				}
			}
		}
	}
}

// checkBenchCommand checks one `go test … -bench=<pattern> <dir>`
// command.
func checkBenchCommand(cmd string) error {
	// Words are blank-separated; a pattern is at most single-quoted.
	args := strings.Fields(cmd)
	if len(args) < 4 || args[0] != "go" || args[1] != "test" {
		return fmt.Errorf("not a go test command")
	}
	var pattern string
	for _, a := range args[2 : len(args)-1] {
		if p, ok := strings.CutPrefix(a, "-bench="); ok {
			pattern = strings.Trim(p, "'")
		}
	}
	if pattern == "" {
		return fmt.Errorf("no -bench=<pattern> before the package directory")
	}
	dir := args[len(args)-1]
	benches, err := benchmarkFuncs(dir)
	if err != nil {
		return err
	}
	for _, name := range benchIdent.FindAllString(pattern, -1) {
		if !benches[name] {
			return fmt.Errorf("%s is not a func in %s", name, dir)
		}
	}
	return nil
}

// benchmarkFuncs returns the top-level Benchmark funcs declared in the
// _test.go files of the package in dir.
func benchmarkFuncs(dir string) (map[string]bool, error) {
	if srcs, _ := filepath.Glob(filepath.Join(dir, "*.go")); len(srcs) == 0 {
		return nil, fmt.Errorf("%s is not a package directory", dir)
	}
	tests, err := filepath.Glob(filepath.Join(dir, "*_test.go"))
	if err != nil {
		return nil, err
	}
	funcs := map[string]bool{}
	fset := token.NewFileSet()
	for _, path := range tests {
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		for _, d := range f.Decls {
			if fn, ok := d.(*ast.FuncDecl); ok && fn.Recv == nil && strings.HasPrefix(fn.Name.Name, "Benchmark") {
				funcs[fn.Name.Name] = true
			}
		}
	}
	return funcs, nil
}
