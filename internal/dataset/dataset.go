// Package dataset provides the categorical data substrate used by every
// other component: items with m categorical attributes, value interning,
// presence filtering and CSV interchange.
//
// Following the paper's formulation (§III-A1), an item is a vector
// X = [x_1 … x_m] of categorical values drawn from per-attribute domains.
// Values are interned to dense integer IDs. Interning is *attribute
// tagged*: the pair (attribute j, raw value) maps to a single ID, so two
// items share an ID exactly when they match on that attribute. With tagged
// IDs the Jaccard similarity of two items' value sets is
//
//	J(X,Y) = matches / (2m − matches)
//
// which is the quantity the paper's error bound (§III-C) is stated in
// terms of: one shared attribute value implies J ≥ 1/(2m−1).
//
// Presence: for sparse binary data (e.g. word-presence vectors) the paper
// filters out "not present" feature values before MinHashing (Algorithm 2,
// lines 2–4) while K-Modes itself still compares all m attributes. Each
// interned value therefore carries a presence flag; ordinary categorical
// values are always present.
package dataset

import (
	"fmt"
	"sync"

	"lshcluster/internal/kernel"
)

// Value is an interned categorical value identifier. The zero Value is
// reserved and never produced by interning, so it can be used as a
// sentinel for "unset".
type Value uint32

// Dataset is an immutable collection of n items, each with m categorical
// attributes, stored row-major in a single flat slice. An optional
// ground-truth label per item supports purity evaluation. Datasets are
// safe for concurrent reads.
type Dataset struct {
	attrNames []string
	m         int
	values    []Value // len n·m, row-major
	labels    []int32 // len n, or nil when unlabelled
	dict      *Dict   // optional; nil for purely numeric-ID data
	present   presence
	// fp/fpOnce cache the lazily computed Fingerprint (see binary.go).
	fp     uint64
	fpOnce sync.Once
}

// presence answers "is this value ID a present feature?" for MinHash
// filtering. A nil table means every value is present.
type presence interface {
	present(v Value) bool
}

type allPresent struct{}

func (allPresent) present(Value) bool { return true }

// New assembles a Dataset from pre-interned values. values must have
// length a multiple of len(attrNames); labels may be nil or have length
// n = len(values)/m. dict may be nil when items were built from numeric
// IDs directly (e.g. synthetic generators). The slices are retained, not
// copied.
func New(attrNames []string, values []Value, labels []int32, dict *Dict) (*Dataset, error) {
	m := len(attrNames)
	if m == 0 {
		return nil, fmt.Errorf("dataset: no attributes")
	}
	if len(values)%m != 0 {
		return nil, fmt.Errorf("dataset: %d values not a multiple of %d attributes", len(values), m)
	}
	n := len(values) / m
	if labels != nil && len(labels) != n {
		return nil, fmt.Errorf("dataset: %d labels for %d items", len(labels), n)
	}
	ds := &Dataset{
		attrNames: attrNames,
		m:         m,
		values:    values,
		labels:    labels,
		dict:      dict,
	}
	if dict != nil {
		ds.present = dict
	} else {
		ds.present = allPresent{}
	}
	return ds, nil
}

// NumItems returns n, the number of items.
func (ds *Dataset) NumItems() int { return len(ds.values) / ds.m }

// NumAttrs returns m, the number of attributes per item.
func (ds *Dataset) NumAttrs() int { return ds.m }

// AttrNames returns the attribute names. The slice must not be modified.
func (ds *Dataset) AttrNames() []string { return ds.attrNames }

// Row returns item i's values as a subslice of the backing store. The
// returned slice must not be modified.
func (ds *Dataset) Row(i int) []Value {
	return ds.values[i*ds.m : (i+1)*ds.m : (i+1)*ds.m]
}

// Values returns the full row-major backing store (n·m values). It must
// not be modified.
func (ds *Dataset) Values() []Value { return ds.values }

// Labeled reports whether ground-truth labels are attached.
func (ds *Dataset) Labeled() bool { return ds.labels != nil }

// Label returns item i's ground-truth label, or -1 when unlabelled.
func (ds *Dataset) Label(i int) int {
	if ds.labels == nil {
		return -1
	}
	return int(ds.labels[i])
}

// Labels returns the label slice (nil when unlabelled). It must not be
// modified.
func (ds *Dataset) Labels() []int32 { return ds.labels }

// Dict returns the interning dictionary, or nil for numeric-ID datasets.
func (ds *Dataset) Dict() *Dict { return ds.dict }

// Present reports whether value v represents a present feature (always
// true for datasets without a dictionary).
func (ds *Dataset) Present(v Value) bool { return ds.present.present(v) }

// PresentValues appends the IDs of item i's present values to buf and
// returns it. This is the item-as-set view consumed by MinHash
// (Algorithm 2 lines 1–5: "filter out any feature values that indicate
// that the feature is not present").
func (ds *Dataset) PresentValues(i int, buf []uint64) []uint64 {
	for _, v := range ds.Row(i) {
		if ds.present.present(v) {
			buf = append(buf, uint64(v))
		}
	}
	return buf
}

// MaxValue returns the largest value ID appearing in the dataset, useful
// for sizing lookup tables. It scans the data once.
func (ds *Dataset) MaxValue() Value {
	var maxV Value
	for _, v := range ds.values {
		if v > maxV {
			maxV = v
		}
	}
	return maxV
}

// String summarises the dataset shape.
func (ds *Dataset) String() string {
	lab := "unlabelled"
	if ds.labels != nil {
		lab = "labelled"
	}
	return fmt.Sprintf("dataset(n=%d, m=%d, %s)", ds.NumItems(), ds.m, lab)
}

// Jaccard returns the exact Jaccard similarity of items i and j viewed as
// sets of present attribute-tagged values. With tagged IDs this equals
// matches/(2m'−matches) over the present attributes.
func (ds *Dataset) Jaccard(i, j int) float64 {
	ri, rj := ds.Row(i), ds.Row(j)
	inter, uni := 0, 0
	for a := range ri {
		pi := ds.present.present(ri[a])
		pj := ds.present.present(rj[a])
		switch {
		case pi && pj:
			if ri[a] == rj[a] {
				inter++
				uni++
			} else {
				uni += 2
			}
		case pi || pj:
			uni++
		}
	}
	if uni == 0 {
		return 0
	}
	return float64(inter) / float64(uni)
}

// Mismatches returns the K-Modes dissimilarity between rows x and y: the
// number of attributes on which they differ (paper Eq. 1–2). Both slices
// must have equal length. The count runs on the unrolled branchless
// kernel (internal/kernel); MismatchesScalar is the value-identical
// scalar reference.
func Mismatches(x, y []Value) int {
	if len(x) != len(y) {
		panic("dataset: Mismatches on rows of different arity")
	}
	return kernel.Mismatches(x, y)
}

// MismatchesScalar is the scalar reference for Mismatches — the oracle
// the kernel equivalence tests (and core.Oracles.ScalarKernels runs)
// compare against.
func MismatchesScalar(x, y []Value) int {
	if len(x) != len(y) {
		panic("dataset: Mismatches on rows of different arity")
	}
	return kernel.MismatchesScalar(x, y)
}

// MismatchesMaskedBounded counts mismatches between x and y over the
// attributes flagged in present only, returning early with a value ≥
// bound as soon as the count reaches bound. Absent attributes are
// treated as missing data: they contribute nothing to the distance. A
// nil mask compares every attribute (MismatchesBounded, the unrolled
// kernel); the masked loop itself stays scalar — the mask's
// data-dependent skip defeats straight-line unrolling.
func MismatchesMaskedBounded(x, y []Value, present []bool, bound int) int {
	if present == nil {
		return MismatchesBounded(x, y, bound)
	}
	return mismatchesMasked(x, y, present, bound)
}

// MismatchesMaskedBoundedScalar is the scalar reference for
// MismatchesMaskedBounded: identical except that a nil mask runs the
// scalar bounded count.
func MismatchesMaskedBoundedScalar(x, y []Value, present []bool, bound int) int {
	if present == nil {
		return MismatchesBoundedScalar(x, y, bound)
	}
	return mismatchesMasked(x, y, present, bound)
}

//lshvet:ignore kernelcheck masked variant with early-exit bound; no kernel expresses the three-slice mask shape
func mismatchesMasked(x, y []Value, present []bool, bound int) int {
	if len(present) != len(x) {
		panic("dataset: MismatchesMaskedBounded mask arity mismatch")
	}
	d := 0
	for a := range x {
		if present[a] && x[a] != y[a] {
			d++
			if d >= bound {
				return d
			}
		}
	}
	return d
}

// MismatchesBounded counts mismatches between x and y but returns early
// with a value ≥ bound as soon as the count reaches bound. It is the
// early-abandon variant used when a best-so-far distance is known. The
// count runs on the unrolled kernel, whose early-exit return value is
// exactly the scalar reference's (see kernel.MismatchesBounded).
func MismatchesBounded(x, y []Value, bound int) int {
	return kernel.MismatchesBounded(x, y, bound)
}

// MismatchesBoundedScalar is the scalar reference for MismatchesBounded.
func MismatchesBoundedScalar(x, y []Value, bound int) int {
	return kernel.MismatchesBoundedScalar(x, y, bound)
}
