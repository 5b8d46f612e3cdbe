//go:build unix

package persist

import (
	"os"
	"syscall"
)

// MmapSupported reports whether this build can memory-map files.
// When false, callers fall back to the heap Load path, which is always
// available.
const MmapSupported = true

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
