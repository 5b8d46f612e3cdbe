//go:build !unix

package persist

import (
	"fmt"
	"os"
)

// MmapSupported reports whether this build can memory-map shard files.
const MmapSupported = false

const adviceRandom = 0

func mmapFile(*os.File, int64) ([]byte, error) {
	return nil, fmt.Errorf("memory mapping is not supported on this platform")
}

func munmapFile([]byte) error { return nil }

func madvise([]byte, int) {}
