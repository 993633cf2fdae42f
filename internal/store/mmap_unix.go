//go:build unix

package store

import (
	"fmt"
	"math"
	"os"
	"syscall"
)

// mapFile memory-maps a file read-only. The second return reports whether
// the bytes are an mmap (true) or a heap copy (false, used for empty
// files and non-unix builds); mapped bytes must be released with
// unmapFile if the caller rejects them.
func mapFile(path string) ([]byte, bool, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, false, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, false, fmt.Errorf("store: %w", err)
	}
	size := fi.Size()
	if size == 0 {
		// mmap rejects zero-length mappings; an empty snapshot fails
		// validation anyway, so hand back an empty heap slice.
		return []byte{}, false, nil
	}
	if size > math.MaxInt32 && ^uint(0)>>32 == 0 || size < 0 {
		return nil, false, fmt.Errorf("store: %s: %d bytes does not fit the address space", path, size)
	}
	data, err := syscall.Mmap(int(f.Fd()), 0, int(size), syscall.PROT_READ, syscall.MAP_PRIVATE)
	if err != nil {
		return nil, false, fmt.Errorf("store: mmap %s: %w", path, err)
	}
	return data, true, nil
}

func unmapFile(data []byte) {
	// Releasing a rejected mapping; nothing to do on failure beyond leaking pages.
	syscall.Munmap(data)
}
