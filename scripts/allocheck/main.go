// Command allocheck is the escape-analysis gate for the repo's
// zero-allocation hot paths. Functions annotated //lshvet:noescape (the
// cluster-summary upkeep in internal/lsh, the shortlist fold in
// internal/core and the distance kernels in internal/kernel) are
// compiled with -gcflags=-m and any "escapes to
// heap" / "moved to heap" diagnostic landing inside an annotated
// function fails the gate: a heap allocation on a per-item path turns
// O(1) queries into garbage-collector load that the paper's speedup
// measurements never budgeted for.
//
// Usage:
//
//	go run ./scripts/allocheck            # gate the repo
//	go run ./scripts/allocheck -dir m ./pkg/...
//
// Exit codes: 0 clean, 1 escape findings, 2 the gate itself failed.
package main

import (
	"bufio"
	"bytes"
	"flag"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// Marker is the annotation that opts a function into the gate.
const Marker = "//lshvet:noescape"

// noescapeFunc is one annotated function's source range.
type noescapeFunc struct {
	name     string
	file     string // absolute path
	from, to int    // line range, inclusive
}

func main() {
	dir := flag.String("dir", ".", "module directory to gate")
	flag.Parse()
	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	os.Exit(Main(*dir, patterns, os.Stdout, os.Stderr))
}

// Main runs the gate over dir's packages matching patterns and returns
// the process exit code.
func Main(dir string, patterns []string, stdout, stderr io.Writer) int {
	funcs, err := annotatedFuncs(dir, patterns)
	if err != nil {
		fmt.Fprintf(stderr, "allocheck: %v\n", err)
		return 2
	}
	if len(funcs) == 0 {
		fmt.Fprintf(stdout, "allocheck: no %s functions under %s %s\n", Marker, dir, strings.Join(patterns, " "))
		return 0
	}
	diags, err := escapeDiagnostics(dir, patterns)
	if err != nil {
		fmt.Fprintf(stderr, "allocheck: %v\n", err)
		return 2
	}
	violations := 0
	for _, d := range diags {
		for _, fn := range funcs {
			if d.file == fn.file && d.line >= fn.from && d.line <= fn.to {
				fmt.Fprintf(stdout, "%s:%d:%d: allocheck: %s inside %s %s\n",
					d.file, d.line, d.col, d.message, Marker, fn.name)
				violations++
				break
			}
		}
	}
	if violations > 0 {
		fmt.Fprintf(stderr, "allocheck: %d escape(s) in annotated hot paths\n", violations)
		return 1
	}
	fmt.Fprintf(stdout, "allocheck: %d annotated function(s) clean\n", len(funcs))
	return 0
}

// annotatedFuncs parses every source file of the matched packages and
// returns the //lshvet:noescape-annotated function ranges.
func annotatedFuncs(dir string, patterns []string) ([]noescapeFunc, error) {
	args := append([]string{"list", "-f",
		"{{$d := .Dir}}{{range .GoFiles}}{{$d}}/{{.}}\n{{end}}"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var out, errb bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errb
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go list: %v\n%s", err, errb.String())
	}
	var funcs []noescapeFunc
	fset := token.NewFileSet()
	sc := bufio.NewScanner(&out)
	for sc.Scan() {
		file := strings.TrimSpace(sc.Text())
		if file == "" {
			continue
		}
		src, err := os.ReadFile(file)
		if err != nil {
			return nil, err
		}
		if !bytes.Contains(src, []byte(Marker)) {
			continue
		}
		f, err := parser.ParseFile(fset, file, src, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("parsing %s: %w", file, err)
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Doc == nil {
				continue
			}
			for _, c := range fd.Doc.List {
				if strings.HasPrefix(c.Text, Marker) {
					funcs = append(funcs, noescapeFunc{
						name: fd.Name.Name,
						file: file,
						from: fset.Position(fd.Pos()).Line,
						to:   fset.Position(fd.End()).Line,
					})
					break
				}
			}
		}
	}
	sort.Slice(funcs, func(i, j int) bool {
		if funcs[i].file != funcs[j].file {
			return funcs[i].file < funcs[j].file
		}
		return funcs[i].from < funcs[j].from
	})
	return funcs, nil
}

// escapeDiag is one compiler escape diagnostic.
type escapeDiag struct {
	file      string // absolute path
	line, col int
	message   string
}

// diagRe matches -m output lines: path.go:line:col: message.
var diagRe = regexp.MustCompile(`^(.+\.go):(\d+):(\d+): (.*)$`)

// escapeDiagnostics compiles the matched packages with -gcflags=-m and
// returns the heap-escape diagnostics. Diagnostics replay from the
// build cache, so a warm repeated run is cheap.
func escapeDiagnostics(dir string, patterns []string) ([]escapeDiag, error) {
	args := append([]string{"build", "-gcflags=-m"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var errb bytes.Buffer
	cmd.Stderr = &errb
	runErr := cmd.Run()
	absDir, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	var diags []escapeDiag
	sc := bufio.NewScanner(&errb)
	for sc.Scan() {
		m := diagRe.FindStringSubmatch(sc.Text())
		if m == nil {
			continue
		}
		msg := m[4]
		if !strings.Contains(msg, "escapes to heap") && !strings.Contains(msg, "moved to heap") {
			continue
		}
		file := m[1]
		if !filepath.IsAbs(file) {
			file = filepath.Join(absDir, file)
		}
		line, _ := strconv.Atoi(m[2])
		col, _ := strconv.Atoi(m[3])
		diags = append(diags, escapeDiag{file: file, line: line, col: col, message: msg})
	}
	if runErr != nil {
		// -m chatter goes to stderr either way; a failed build means the
		// output is not trustworthy.
		if !compiled(errb.Bytes()) {
			return nil, fmt.Errorf("go build -gcflags=-m: %v\n%s", runErr, errb.String())
		}
	}
	return diags, nil
}

// compiled reports whether stderr looks like pure -m chatter (every line
// a diagnostic or a package banner) rather than a build failure.
func compiled(stderr []byte) bool {
	sc := bufio.NewScanner(bytes.NewReader(stderr))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") || diagRe.MatchString(line) {
			continue
		}
		return false
	}
	return true
}
