// Package atomicfile replaces a file's contents crash-safely: readers
// and a restart after power loss see either the old bytes or the new
// ones, never a torn write.
package atomicfile

import (
	"os"
	"path/filepath"
)

// WriteFile writes data to path via a temp file in the same directory,
// named by os.CreateTemp from tmpPattern: write, fsync, rename, fsync
// directory. The temp file is removed on every failure path.
func WriteFile(path, tmpPattern string, data []byte) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, tmpPattern)
	if err != nil {
		return err
	}
	tmpName := tmp.Name()
	defer os.Remove(tmpName) // no-op after successful rename
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmpName, path); err != nil {
		return err
	}
	return syncDir(dir)
}

// syncDir fsyncs a directory so a completed rename survives power loss.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	// Some platforms (and some filesystems) refuse to fsync a
	// directory; the rename itself is still atomic there, so the error
	// is not worth failing the write over.
	_ = d.Sync()
	return nil
}
