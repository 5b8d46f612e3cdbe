package persist

import (
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func testSections() []Section {
	i32 := func(vs ...int32) []byte {
		b := make([]byte, 4*len(vs))
		for i, v := range vs {
			binary.LittleEndian.PutUint32(b[4*i:], uint32(v))
		}
		return b
	}
	u64 := func(vs ...uint64) []byte {
		b := make([]byte, 8*len(vs))
		for i, v := range vs {
			binary.LittleEndian.PutUint64(b[8*i:], v)
		}
		return b
	}
	return []Section{
		{ID: 1, ElemSize: 4, Data: i32(0, 2, 5, 9)},
		{ID: 2, ElemSize: 8, Data: u64(7, 11, 13, 17, 19)},
		{ID: 3, ElemSize: 1, Data: []byte{1, 0, 1}},
		{ID: 4, ElemSize: 4, Data: nil}, // empty sections are legal
	}
}

func writeTestFile(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "shard-0.lshz")
	if err := WriteFile(path, testSections()); err != nil {
		t.Fatal(err)
	}
	return path
}

// loadModes runs a subtest per load path (heap oracle and, where
// supported, mmap); both must behave identically.
func loadModes(t *testing.T, fn func(t *testing.T, useMmap bool)) {
	t.Run("heap", func(t *testing.T) { fn(t, false) })
	if MmapSupported {
		t.Run("mmap", func(t *testing.T) { fn(t, true) })
	}
}

func TestRoundTrip(t *testing.T) {
	path := writeTestFile(t)
	want := testSections()
	loadModes(t, func(t *testing.T, useMmap bool) {
		f, err := Open(path, useMmap)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		if f.Mapped() != useMmap {
			t.Fatalf("Mapped() = %v, want %v", f.Mapped(), useMmap)
		}
		off, err := View[int32](f, 1)
		if err != nil {
			t.Fatal(err)
		}
		if len(off) != 4 || off[0] != 0 || off[3] != 9 {
			t.Fatalf("int32 view = %v", off)
		}
		keys, err := View[uint64](f, 2)
		if err != nil {
			t.Fatal(err)
		}
		if len(keys) != 5 || keys[4] != 19 {
			t.Fatalf("uint64 view = %v", keys)
		}
		flags, err := View[bool](f, 3)
		if err != nil {
			t.Fatal(err)
		}
		if len(flags) != 3 || !flags[0] || flags[1] {
			t.Fatalf("bool view = %v", flags)
		}
		empty, err := View[int32](f, 4)
		if err != nil || len(empty) != 0 {
			t.Fatalf("empty view = %v, %v", empty, err)
		}
		if _, err := View[int32](f, 9); err == nil {
			t.Fatal("missing section did not error")
		}
		if _, err := View[int64](f, 1); err == nil {
			t.Fatal("element-size mismatch did not error")
		}
		// Advice must be safe on any section and load mode.
		f.AdviseRandom(2)
		_ = want
	})
}

func TestWriteFileAtomicPermsAndAlignment(t *testing.T) {
	path := writeTestFile(t)
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if perm := st.Mode().Perm(); perm != 0o644 {
		t.Fatalf("saved file mode %o, want 644", perm)
	}
	leftovers, _ := filepath.Glob(filepath.Join(filepath.Dir(path), "*.tmp*"))
	if len(leftovers) != 0 {
		t.Fatalf("temp files left behind: %v", leftovers)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	count := binary.LittleEndian.Uint32(data[16:])
	for i := uint32(0); i < count; i++ {
		off := binary.LittleEndian.Uint64(data[headerSize+int(i)*entrySize+16:])
		if off%sectionAlig != 0 {
			t.Fatalf("section %d at offset %d, not 64-byte aligned", i, off)
		}
	}
}

func TestWriteFileRejectsBadSections(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.lshz")
	if err := WriteFile(path, []Section{{ID: 1, ElemSize: 0, Data: []byte{1}}}); err == nil {
		t.Fatal("zero element size accepted")
	}
	if err := WriteFile(path, []Section{{ID: 1, ElemSize: 4, Data: []byte{1, 2, 3}}}); err == nil {
		t.Fatal("ragged section accepted")
	}
	dup := []Section{{ID: 1, ElemSize: 1, Data: []byte{1}}, {ID: 1, ElemSize: 1, Data: []byte{2}}}
	if err := WriteFile(path, dup); err == nil {
		t.Fatal("duplicate section id accepted")
	}
}

// TestOpenRejectsCorruption is the corruption fixture table: every
// damaged variant of a valid file must be rejected with an error —
// never a panic, never a partial load — on both load paths.
func TestOpenRejectsCorruption(t *testing.T) {
	valid, err := os.ReadFile(writeTestFile(t))
	if err != nil {
		t.Fatal(err)
	}
	fixtures := []struct {
		name string
		want string // substring of the expected error
		mut  func(b []byte) []byte
	}{
		{"empty", "truncated", func(b []byte) []byte { return nil }},
		{"truncated-header", "truncated", func(b []byte) []byte { return b[:headerSize-8] }},
		{"truncated-body", "truncated", func(b []byte) []byte { return b[:len(b)-16] }},
		{"bad-magic", "bad magic", func(b []byte) []byte { b[0] ^= 0xff; return b }},
		{"wrong-version", "format version", func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[8:], FormatVersion+1)
			// Re-seal the header so the version check itself is reached.
			resealHeader(b)
			return b
		}},
		{"foreign-byte-order", "byte order", func(b []byte) []byte {
			b[12], b[13], b[14], b[15] = b[15], b[14], b[13], b[12]
			resealHeader(b)
			return b
		}},
		{"header-bit-flip", "checksum", func(b []byte) []byte { b[17] ^= 0x01; return b }},
		{"table-bit-flip", "checksum", func(b []byte) []byte { b[headerSize+4] ^= 0x40; return b }},
		{"section-bit-flip", "checksum", func(b []byte) []byte {
			// Flip a payload byte (not alignment padding): locate the
			// first section via its table entry.
			off := binary.LittleEndian.Uint64(b[headerSize+16:])
			b[off] ^= 0x80
			return b
		}},
		{"grown", "truncated", func(b []byte) []byte { return append(b, 0) }},
	}
	for _, fx := range fixtures {
		t.Run(fx.name, func(t *testing.T) {
			data := fx.mut(append([]byte(nil), valid...))
			path := filepath.Join(t.TempDir(), "corrupt.lshz")
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
			loadModes(t, func(t *testing.T, useMmap bool) {
				f, err := Open(path, useMmap)
				if err == nil {
					f.Close()
					t.Fatalf("corrupted file (%s) loaded without error", fx.name)
				}
				if !strings.Contains(err.Error(), fx.want) {
					t.Fatalf("error %q does not mention %q", err, fx.want)
				}
			})
		})
	}
}

// resealHeader recomputes the header CRC after a deliberate header
// mutation, so deeper validation layers are exercised.
func resealHeader(b []byte) {
	binary.LittleEndian.PutUint32(b[36:], crc32.Checksum(b[0:36], castagnoli))
}

func TestManifestRoundTripAndValidation(t *testing.T) {
	dir := t.TempDir()
	if _, err := ReadManifest(dir); err == nil {
		t.Fatal("missing manifest did not error")
	}
	m := &Manifest{
		FormatVersion: FormatVersion,
		Shards:        2,
		Items:         100,
		Bands:         4,
		Rows:          2,
		Seed:          Hex64(7),
		Partitioner:   "range",
		Fingerprint:   Hex64(42),
		PermHash:      Hex64(0),
		ShardFiles:    []string{"shard-0.lshz", "shard-1.lshz"},
		ShardInserted: []int{50, 50},
	}
	if err := WriteManifest(dir, m); err != nil {
		t.Fatal(err)
	}
	st, err := os.Stat(filepath.Join(dir, ManifestName))
	if err != nil {
		t.Fatal(err)
	}
	if perm := st.Mode().Perm(); perm != 0o644 {
		t.Fatalf("manifest mode %o, want 644", perm)
	}
	got, err := ReadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got.Seed != m.Seed || got.Shards != 2 || got.Fingerprint != Hex64(42) {
		t.Fatalf("manifest round trip mismatch: %+v", got)
	}

	for name, mut := range map[string]func(*Manifest){
		"version":     func(m *Manifest) { m.FormatVersion = FormatVersion + 1 },
		"shard-files": func(m *Manifest) { m.ShardFiles = m.ShardFiles[:1] },
		"inserted":    func(m *Manifest) { m.ShardInserted = nil },
	} {
		t.Run(name, func(t *testing.T) {
			bad := *m
			bad.ShardFiles = append([]string(nil), m.ShardFiles...)
			bad.ShardInserted = append([]int(nil), m.ShardInserted...)
			mut(&bad)
			dir2 := t.TempDir()
			if err := WriteManifest(dir2, &bad); err != nil {
				t.Fatal(err)
			}
			if _, err := ReadManifest(dir2); err == nil {
				t.Fatal("inconsistent manifest accepted")
			}
		})
	}

	if err := os.WriteFile(filepath.Join(dir, ManifestName), []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadManifest(dir); err == nil {
		t.Fatal("unparsable manifest accepted")
	}
}
