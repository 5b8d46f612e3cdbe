//go:build unix

package persist

import (
	"os"
	"syscall"
)

// MmapSupported reports whether this build can memory-map shard files.
// When false, callers fall back to the heap Load path, which is always
// available.
const MmapSupported = true

const adviceRandom = syscall.MADV_RANDOM

func mmapFile(f *os.File, size int64) ([]byte, error) {
	if size == 0 {
		return []byte{}, nil
	}
	return syscall.Mmap(int(f.Fd()), 0, int(size), syscall.PROT_READ, syscall.MAP_SHARED)
}

func munmapFile(data []byte) error {
	if len(data) == 0 {
		return nil
	}
	return syscall.Munmap(data)
}

// madvise applies the access-pattern hint; failures are deliberately
// ignored — advice is an optimisation, never a correctness dependency.
func madvise(data []byte, advice int) {
	_ = syscall.Madvise(data, advice)
}
