package analysis

import "testing"

// TestLoadModule loads the real repository: every package must parse
// and type-check from source against export data, including in-package
// and external test files. This is the foundation every analyzer test
// builds on.
func TestLoadModule(t *testing.T) {
	prog, err := Load("../..", "./...")
	if err != nil {
		t.Fatal(err)
	}
	if prog.ModulePath != "lshcluster" {
		t.Fatalf("module path = %q, want lshcluster", prog.ModulePath)
	}
	for _, path := range []string{
		"lshcluster",
		"lshcluster/internal/core",
		"lshcluster/internal/core_test",
		"lshcluster/internal/runstats",
		"lshcluster/cmd/lshcluster",
	} {
		pkg := prog.Lookup(path)
		if pkg == nil {
			t.Fatalf("package %s not loaded", path)
		}
		if len(pkg.Files) == 0 || pkg.Pkg == nil || pkg.Info == nil {
			t.Fatalf("package %s loaded without syntax or types", path)
		}
	}
	// The core package variant must include its in-package test files:
	// oraclecheck's "referenced from a test" requirement reads them.
	core := prog.Lookup("lshcluster/internal/core")
	hasTest := false
	for _, f := range core.Files {
		if prog.IsTestFile(f.Pos()) {
			hasTest = true
			break
		}
	}
	if !hasTest {
		t.Fatal("core package loaded without its in-package test files")
	}
}

// TestLoadExternalTestHelpers loads a fixture whose external test uses
// an export_test.go helper of its package together with a second
// package that imports the first. The go tool rebuilds the second
// package against the test variant, so the external test type-checks
// only when every import comes from that variant.
func TestLoadExternalTestHelpers(t *testing.T) {
	prog, err := Load("testdata/src/xtestfix", "./...")
	if err != nil {
		t.Fatal(err)
	}
	x := prog.Lookup("xtestfix/a_test")
	if x == nil || x.Pkg == nil {
		t.Fatal("external test package xtestfix/a_test not loaded")
	}
	if x.Pkg.Scope().Lookup("TestSize") == nil {
		t.Fatal("external test package loaded without its test function")
	}
}
