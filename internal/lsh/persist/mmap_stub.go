//go:build !unix

package persist

import (
	"fmt"
	"os"
)

// MmapSupported reports whether this build can memory-map files.
const MmapSupported = false

func mmapFile(*os.File, int64) ([]byte, error) {
	return nil, fmt.Errorf("memory mapping is not supported on this platform")
}

func munmapFile([]byte) error { return nil }
