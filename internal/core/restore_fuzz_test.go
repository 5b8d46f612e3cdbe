package core

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"path/filepath"
	"slices"
	"testing"

	"lshcluster/internal/datagen"
	"lshcluster/internal/kmodes"
	"lshcluster/internal/lsh/persist"
	"lshcluster/internal/runstats"
)

// restoreDriver returns a driver over a small K-Modes space, as Run
// makes it before the bootstrap, and the exact first assignment its
// bootstrap scan computes. 300 items put a stride of 4 behind the first
// 64 spot-checked ones, so the assignment cache has unchecked items.
func restoreDriver(t testing.TB) (*driver, []int32) {
	t.Helper()
	ds, err := datagen.Generate(datagen.Config{
		Items: 300, Clusters: 6, Attrs: 8, Domain: 30,
		MinRuleFrac: 0.6, MaxRuleFrac: 0.9, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	space, err := kmodes.NewSpace(ds, kmodes.Config{K: 6, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	d := &driver{space: space, n: space.NumItems(), k: space.NumClusters(), assign: make([]int32, space.NumItems())}
	for i := range d.assign {
		d.assign[i] = -1
	}
	d.bootstrapScan(1)
	return d, slices.Clone(d.assign)
}

// FuzzRestoreRunState fuzzes the two files a run reads back from its
// index directory, the run-state checkpoint (restoreRunState) and the
// bootstrap-assignment cache (restoreBootstrapAssign), section by
// section. Each input writes, through persist.WriteFile and so with
// valid checksums, a header of the first hdrLen%5 entries of
// {n+dn, k+dk, next, 0}, the exact first assignment resized by dlen and
// edited (three bytes per edit: a little-endian position and the new
// cluster as a signed byte), and iterations gob-encoded from iters (an
// index per byte, 1, 2, … where the byte is 0) or, with raw, iters
// itself. shape drops sections or stores them at another element
// size. restoreRunState must return an error, and
// restoreBootstrapAssign false, leaving the assignment untouched, or
// each must install exactly the file's assignment — and
// restoreRunState its iterations and next iteration — of a file that
// holds a valid state. restoreRunState must accept every file whose
// state is valid, and restoreBootstrapAssign every file holding the
// exact assignment under a valid header. Nothing may panic. A cache
// edited only outside the spot-checked items loads, by design.
func FuzzRestoreRunState(f *testing.F) {
	f.Add(uint8(3), int8(0), int8(0), int8(3), int8(0), []byte{}, []byte{0, 0}, false, uint8(0))
	f.Add(uint8(2), int8(0), int8(0), int8(0), int8(0), []byte{}, []byte{}, false, uint8(0))
	f.Add(uint8(2), int8(0), int8(0), int8(0), int8(0), []byte{65, 0, 5}, []byte{}, false, uint8(0)) // unchecked item 65
	f.Add(uint8(2), int8(0), int8(0), int8(0), int8(0), []byte{64, 0, 5}, []byte{}, false, uint8(0)) // checked item 64
	f.Add(uint8(3), int8(1), int8(0), int8(2), int8(0), []byte{}, []byte{0}, false, uint8(0))
	f.Add(uint8(3), int8(0), int8(-1), int8(1), int8(-1), []byte{9, 0, 0xff}, []byte{}, false, uint8(0))
	f.Add(uint8(3), int8(0), int8(0), int8(4), int8(0), []byte{}, []byte{0, 3, 0}, false, uint8(0))
	f.Add(uint8(3), int8(0), int8(0), int8(2), int8(0), []byte{}, []byte{0x0d, 0xff, 0x81}, true, uint8(0))
	f.Add(uint8(3), int8(0), int8(0), int8(1), int8(0), []byte{}, []byte{}, false, uint8(0x15))
	d, exact := restoreDriver(f)
	f.Fuzz(func(t *testing.T, hdrLen uint8, dn, dk, next, dlen int8, edits, iters []byte, raw bool, shape uint8) {
		hdr := []int64{int64(d.n) + int64(dn), int64(d.k) + int64(dk), int64(next), 0}[:hdrLen%5]
		assign := slices.Clone(exact)
		if dlen < 0 {
			assign = assign[:max(len(assign)+int(dlen), 0)]
		} else {
			assign = append(assign, make([]int32, dlen)...)
		}
		for e := 0; e+3 <= len(edits) && len(assign) > 0; e += 3 {
			assign[int(binary.LittleEndian.Uint16(edits[e:]))%len(assign)] = int32(int8(edits[e+2]))
		}
		var its []runstats.Iteration
		for j, b := range iters {
			index := int(int8(b))
			if b == 0 {
				index = j + 1
			}
			its = append(its, runstats.Iteration{Index: index, Moves: int(b), Cost: float64(j)})
		}
		stats, decoded := gobOf(t, its), true
		if raw {
			// The file's iterations are what the decoder makes of them.
			stats, its = iters, nil
			decoded = gob.NewDecoder(bytes.NewReader(iters)).Decode(&its) == nil
		}
		sections := []persist.Section{
			{ID: secHeader, ElemSize: 8, Data: rawI64(hdr)},
			{ID: secAssignment, ElemSize: 4, Data: rawI32(assign)},
			{ID: secIterations, ElemSize: 1, Data: stats},
		}
		if shape&1 != 0 {
			sections[0].ElemSize = 4
		}
		if shape&2 != 0 {
			sections[1].ElemSize = 2
		}
		for s := 2; s >= 0; s-- {
			if shape&(4<<s) != 0 {
				sections = slices.Delete(sections, s, s+1)
			}
		}
		path := filepath.Join(t.TempDir(), "state.snap")
		if err := persist.WriteFile(path, sections); err != nil {
			t.Fatal(err)
		}

		// What a valid file holds: the header, the assignment and, for
		// a checkpoint, the iterations, each section as written.
		shapeOK := shape&(1|2|4|8) == 0
		assignOK := len(assign) == d.n && !slices.ContainsFunc(assign, func(c int32) bool { return c < 0 || int(c) >= d.k })
		hdrOK := len(hdr) >= 2 && hdr[0] == int64(d.n) && hdr[1] == int64(d.k)
		itersOK := decoded && len(hdr) == 3 && hdr[2] == int64(len(its)+1)
		for j, it := range its {
			itersOK = itersOK && it.Index == j+1
		}
		stateOK := shapeOK && shape&16 == 0 && assignOK && hdrOK && itersOK
		cacheOK := shapeOK && assignOK && hdrOK && len(hdr) == 2

		sentinel := make([]int32, d.n)
		for i := range sentinel {
			sentinel[i] = -7
		}
		d.assign = slices.Clone(sentinel)
		gotNext, gotIters, err := d.restoreRunState(path)
		switch {
		case err != nil && stateOK:
			t.Fatalf("valid checkpoint rejected: %v", err)
		case err != nil && !slices.Equal(d.assign, sentinel):
			t.Fatalf("rejected checkpoint changed the assignment: %v", err)
		case err == nil && !stateOK:
			t.Fatalf("invalid checkpoint accepted (header %v, %d-item assignment, %d iterations)", hdr, len(assign), len(its))
		case err == nil && (!slices.Equal(d.assign, assign) || gotNext != int(next) || !bytes.Equal(gobOf(t, gotIters), gobOf(t, its))):
			t.Fatal("checkpoint restored other than the file's state")
		}

		d.assign = slices.Clone(sentinel)
		ok := d.restoreBootstrapAssign(path)
		switch {
		case !ok && cacheOK && slices.Equal(assign, exact):
			t.Fatal("the exact assignment's cache rejected")
		case !ok && !slices.Equal(d.assign, sentinel):
			t.Fatal("rejected cache changed the assignment")
		case ok && (!cacheOK || !slices.Equal(d.assign, assign)):
			t.Fatalf("cache restored other than a valid file's assignment (header %v, %d items)", hdr, len(assign))
		}
	})
}

// gobOf returns the gob encoding of v, which compares iterations
// bit for bit, NaN costs included.
func gobOf(t *testing.T, v any) []byte {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}
