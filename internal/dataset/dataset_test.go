package dataset

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func buildToy(t *testing.T) *Dataset {
	t.Helper()
	b := NewBuilder([]string{"colour", "shape", "size"})
	rows := [][]string{
		{"red", "circle", "small"},
		{"red", "square", "large"},
		{"blue", "circle", "small"},
	}
	for i, r := range rows {
		if err := b.AddLabeled(r, i%2); err != nil {
			t.Fatal(err)
		}
	}
	ds, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func TestBuilderShape(t *testing.T) {
	ds := buildToy(t)
	if ds.NumItems() != 3 || ds.NumAttrs() != 3 {
		t.Fatalf("shape = (%d,%d), want (3,3)", ds.NumItems(), ds.NumAttrs())
	}
	if !ds.Labeled() {
		t.Fatal("expected labelled dataset")
	}
	if ds.Label(0) != 0 || ds.Label(1) != 1 || ds.Label(2) != 0 {
		t.Fatalf("labels = %v", ds.Labels())
	}
}

func TestInterningTaggedByAttribute(t *testing.T) {
	ds := buildToy(t)
	d := ds.Dict()
	// "circle" under shape must share an ID across rows 0 and 2 …
	if ds.Row(0)[1] != ds.Row(2)[1] {
		t.Fatal("same (attr,value) pair interned to different IDs")
	}
	// … and "small" under size must not equal anything under colour even
	// if the raw strings were equal; verify attribute tagging via Attr.
	for _, v := range ds.Row(0) {
		_ = d.Raw(v)
	}
	if d.Attr(ds.Row(0)[0]) != 0 || d.Attr(ds.Row(0)[2]) != 2 {
		t.Fatal("interned IDs do not record owning attribute")
	}
}

func TestDictRoundTrip(t *testing.T) {
	d := NewDict(2)
	type pair struct {
		attr int
		raw  string
	}
	pairs := []pair{{0, "a"}, {0, "b"}, {1, "a"}, {1, ""}, {0, "a"}}
	ids := make([]Value, len(pairs))
	for i, p := range pairs {
		ids[i] = d.Intern(p.attr, p.raw)
	}
	if ids[0] != ids[4] {
		t.Fatal("re-interning a pair produced a new ID")
	}
	if ids[0] == ids[2] {
		t.Fatal("same raw under different attributes shares an ID")
	}
	for i, p := range pairs {
		if d.Raw(ids[i]) != p.raw || d.Attr(ids[i]) != p.attr {
			t.Fatalf("round trip failed for %+v", p)
		}
	}
	if d.Size() != 4 {
		t.Fatalf("Size = %d, want 4", d.Size())
	}
	if _, ok := d.Lookup(1, "zzz"); ok {
		t.Fatal("Lookup invented an ID")
	}
}

func TestDictZeroValuePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for reserved zero Value")
		}
	}()
	NewDict(1).Raw(0)
}

func TestMismatches(t *testing.T) {
	x := []Value{1, 2, 3, 4}
	y := []Value{1, 9, 3, 8}
	if d := Mismatches(x, y); d != 2 {
		t.Fatalf("Mismatches = %d, want 2", d)
	}
	if d := Mismatches(x, x); d != 0 {
		t.Fatalf("self distance = %d, want 0", d)
	}
}

func TestMismatchesProperties(t *testing.T) {
	// Hamming distance axioms: bounds, identity, symmetry, triangle.
	gen := func(vals []uint8) []Value {
		out := make([]Value, len(vals))
		for i, v := range vals {
			out[i] = Value(v%4) + 1
		}
		return out
	}
	check := func(a, b, c [8]uint8) bool {
		x, y, z := gen(a[:]), gen(b[:]), gen(c[:])
		dxy := Mismatches(x, y)
		dyx := Mismatches(y, x)
		dxz := Mismatches(x, z)
		dzy := Mismatches(z, y)
		return dxy >= 0 && dxy <= len(x) &&
			dxy == dyx &&
			Mismatches(x, x) == 0 &&
			dxy <= dxz+dzy
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestMismatchesBounded(t *testing.T) {
	x := []Value{1, 2, 3, 4, 5, 6}
	y := []Value{9, 9, 9, 9, 9, 9}
	if d := MismatchesBounded(x, y, 3); d != 3 {
		t.Fatalf("bounded distance = %d, want cut-off 3", d)
	}
	if d := MismatchesBounded(x, y, 100); d != 6 {
		t.Fatalf("bounded distance = %d, want 6", d)
	}
	// Bound larger than the true distance must return the exact value.
	z := []Value{1, 2, 3, 4, 5, 9}
	if d := MismatchesBounded(x, z, 4); d != 1 {
		t.Fatalf("bounded distance = %d, want 1", d)
	}
}

func TestMismatchesArityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on arity mismatch")
		}
	}()
	Mismatches([]Value{1}, []Value{1, 2})
}

func TestJaccardTaggedSemantics(t *testing.T) {
	ds := buildToy(t)
	// Rows 0 and 2 match on shape and size: J = 2/(6−2) = 0.5.
	if got := ds.Jaccard(0, 2); got != 0.5 {
		t.Fatalf("Jaccard(0,2) = %v, want 0.5", got)
	}
	// Row with itself: J = 1.
	if got := ds.Jaccard(1, 1); got != 1 {
		t.Fatalf("Jaccard(1,1) = %v, want 1", got)
	}
	// Rows 1 and 2 match only on nothing: colour differs, shape differs,
	// size differs → J = 0... row1={red,square,large}, row2={blue,circle,small}.
	if got := ds.Jaccard(1, 2); got != 0 {
		t.Fatalf("Jaccard(1,2) = %v, want 0", got)
	}
}

func TestPresentValuesFiltering(t *testing.T) {
	b := NewBuilder([]string{"w1", "w2", "w3"})
	err := b.AddPresence(
		[]string{"w1-1", "w2-0", "w3-1"},
		[]bool{true, false, true}, 0, true)
	if err != nil {
		t.Fatal(err)
	}
	ds, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	vals := ds.PresentValues(0, nil)
	if len(vals) != 2 {
		t.Fatalf("PresentValues returned %d values, want 2", len(vals))
	}
	row := ds.Row(0)
	if !ds.Present(row[0]) || ds.Present(row[1]) || !ds.Present(row[2]) {
		t.Fatal("presence flags wrong")
	}
}

func TestJaccardIgnoresAbsentValues(t *testing.T) {
	b := NewBuilder([]string{"w1", "w2"})
	add := func(r []string, p []bool) {
		t.Helper()
		if err := b.AddPresence(r, p, 0, false); err != nil {
			t.Fatal(err)
		}
	}
	// Item 0: w1 present, w2 absent. Item 1: w1 present, w2 absent.
	// Shared absence must NOT count towards similarity (paper §III-B:
	// "many shared negative features … does not provide particularly
	// useful information").
	add([]string{"y", "n"}, []bool{true, false})
	add([]string{"y", "n"}, []bool{true, false})
	// Item 2: w1 absent, w2 present.
	add([]string{"n", "y"}, []bool{false, true})
	ds, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if got := ds.Jaccard(0, 1); got != 1 {
		t.Fatalf("Jaccard over shared present values = %v, want 1", got)
	}
	if got := ds.Jaccard(0, 2); got != 0 {
		t.Fatalf("Jaccard over disjoint present values = %v, want 0", got)
	}
}

func TestMixedLabelledRowsRejected(t *testing.T) {
	b := NewBuilder([]string{"a"})
	if err := b.Add([]string{"x"}); err != nil {
		t.Fatal(err)
	}
	if err := b.AddLabeled([]string{"y"}, 1); err == nil {
		t.Fatal("expected error mixing labelled and unlabelled rows")
	}
}

func TestBuilderArityError(t *testing.T) {
	b := NewBuilder([]string{"a", "b"})
	if err := b.Add([]string{"only-one"}); err == nil {
		t.Fatal("expected arity error")
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(nil, nil, nil, nil); err == nil {
		t.Fatal("expected error for zero attributes")
	}
	if _, err := New([]string{"a", "b"}, make([]Value, 3), nil, nil); err == nil {
		t.Fatal("expected error for ragged values")
	}
	if _, err := New([]string{"a"}, make([]Value, 3), make([]int32, 2), nil); err == nil {
		t.Fatal("expected error for label count mismatch")
	}
}

func TestCSVRoundTrip(t *testing.T) {
	ds := buildToy(t)
	var buf bytes.Buffer
	if err := WriteCSV(&buf, ds); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.NumItems() != ds.NumItems() || back.NumAttrs() != ds.NumAttrs() {
		t.Fatalf("round trip shape = (%d,%d)", back.NumItems(), back.NumAttrs())
	}
	for i := 0; i < ds.NumItems(); i++ {
		if back.Label(i) != ds.Label(i) {
			t.Fatalf("label %d = %d, want %d", i, back.Label(i), ds.Label(i))
		}
		for a := 0; a < ds.NumAttrs(); a++ {
			want := ds.Dict().Raw(ds.Row(i)[a])
			got := back.Dict().Raw(back.Row(i)[a])
			if got != want {
				t.Fatalf("item %d attr %d = %q, want %q", i, a, got, want)
			}
		}
	}
}

func TestCSVUnlabelled(t *testing.T) {
	in := "a,b\nx,y\nz,y\n"
	ds, err := ReadCSV(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if ds.Labeled() {
		t.Fatal("dataset should be unlabelled")
	}
	if ds.Label(0) != -1 {
		t.Fatal("Label on unlabelled dataset should be -1")
	}
	var buf bytes.Buffer
	if err := WriteCSV(&buf, ds); err != nil {
		t.Fatal(err)
	}
	if got := buf.String(); got != in {
		t.Fatalf("unlabelled round trip = %q, want %q", got, in)
	}
}

// csvErrorCases are inputs ReadCSV must reject; they also seed
// FuzzReadCSV.
var csvErrorCases = []string{
	"",                 // no header
	"a,b,_label\n",     // no items
	"a,_label\nx,oops", // bad label
}

func TestCSVErrors(t *testing.T) {
	for _, c := range csvErrorCases {
		if _, err := ReadCSV(strings.NewReader(c)); err == nil {
			t.Errorf("ReadCSV(%q) succeeded, want error", c)
		}
	}
}

// FuzzReadCSV feeds arbitrary bytes to the CSV reader: it returns an
// error or a dataset with at least one item, every row holding
// NumAttrs values and, when labelled, one label per item — and it
// never panics.
func FuzzReadCSV(f *testing.F) {
	for _, c := range csvErrorCases {
		f.Add(c)
	}
	f.Add("a,b,_label\nx,y,0\nx,z,1\n")
	f.Add("a,b\n\"q,\"\"\",y\n")
	f.Fuzz(func(t *testing.T, in string) {
		ds, err := ReadCSV(strings.NewReader(in))
		if err != nil {
			return
		}
		m := ds.NumAttrs()
		if m == 0 || ds.NumItems() == 0 {
			t.Fatalf("%q: accepted with %d attributes and %d items", in, m, ds.NumItems())
		}
		for i := 0; i < ds.NumItems(); i++ {
			if len(ds.Row(i)) != m {
				t.Fatalf("%q: row %d has %d values, want %d", in, i, len(ds.Row(i)), m)
			}
		}
		if ds.Labeled() && len(ds.Labels()) != ds.NumItems() {
			t.Fatalf("%q: %d labels for %d items", in, len(ds.Labels()), ds.NumItems())
		}
	})
}

func TestCSVNumericIDDataset(t *testing.T) {
	// A dict-less dataset (as produced by synthetic generators) must
	// serialise IDs as decimal and survive a round trip as categories.
	vals := []Value{5, 6, 7, 8}
	ds, err := New([]string{"a", "b"}, vals, []int32{0, 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteCSV(&buf, ds); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.NumItems() != 2 || back.Dict().Raw(back.Row(0)[0]) != "5" {
		t.Fatalf("numeric round trip failed: %v", buf.String())
	}
}

func TestMaxValue(t *testing.T) {
	ds, err := New([]string{"a"}, []Value{3, 9, 2}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ds.MaxValue() != 9 {
		t.Fatalf("MaxValue = %d, want 9", ds.MaxValue())
	}
}

func TestRowAliasesBackingStore(t *testing.T) {
	ds, err := New([]string{"a", "b"}, []Value{1, 2, 3, 4}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if &ds.Row(1)[0] != &ds.Values()[2] {
		t.Fatal("Row must alias the flat backing store (no copies)")
	}
}

func TestJaccardRandomisedAgainstNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const m = 24
	mk := func() []string {
		row := make([]string, m)
		for a := range row {
			row[a] = string(rune('a' + rng.Intn(3)))
		}
		return row
	}
	b := NewBuilder(make([]string, m))
	for i := 0; i < 40; i++ {
		if err := b.Add(mk()); err != nil {
			t.Fatal(err)
		}
	}
	ds, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 200; trial++ {
		i, j := rng.Intn(40), rng.Intn(40)
		match := 0
		for a := 0; a < m; a++ {
			if ds.Row(i)[a] == ds.Row(j)[a] {
				match++
			}
		}
		want := float64(match) / float64(2*m-match)
		if got := ds.Jaccard(i, j); got != want {
			t.Fatalf("Jaccard(%d,%d) = %v, want %v", i, j, got, want)
		}
	}
}
