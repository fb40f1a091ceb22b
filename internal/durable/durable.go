// Package durable replaces files crash-safely. It is the one place the
// program writes a file that must survive a crash: the data goes to a
// temp file beside the target, is fsynced, and is renamed over the
// target, and the directory is fsynced after the rename, so the name
// only ever holds the old content or the complete new content.
package durable

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
)

// tmpPrefix starts every temp file's name; the registry's GC sweeps what
// a crash leaves behind by this prefix.
const tmpPrefix = ".tmp-"

// Write replaces path with what fill writes, with mode 0644. On any error
// the temp file is removed and path is left untouched.
func Write(path string, fill func(io.Writer) error) (err error) {
	dir := filepath.Dir(path)
	f, err := os.CreateTemp(dir, tempPrefix(path)+"*")
	if err != nil {
		return err
	}
	defer func() {
		if err != nil {
			f.Close()
			os.Remove(f.Name())
		}
	}()
	if err = f.Chmod(0o644); err != nil {
		return err
	}
	if err = fill(f); err != nil {
		return err
	}
	if err = f.Sync(); err != nil {
		return err
	}
	if err = f.Close(); err != nil {
		return err
	}
	if err = os.Rename(f.Name(), path); err != nil {
		return err
	}
	return SyncDir(dir)
}

// tempPrefix starts the name of every temp file Write creates for path.
func tempPrefix(path string) string { return tmpPrefix + filepath.Base(path) + "-" }

// RemoveTemps removes the temp files beside path that a crash left behind
// in the middle of a Write to it. Only the one process that writes path
// may call it: another's Write in flight would lose its temp file.
func RemoveTemps(path string) error {
	dir, prefix := filepath.Dir(path), tempPrefix(path)
	entries, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if !strings.HasPrefix(e.Name(), prefix) {
			continue
		}
		if err := os.Remove(filepath.Join(dir, e.Name())); err != nil && !errors.Is(err, os.ErrNotExist) {
			return err
		}
	}
	return nil
}

// WriteFile replaces path with data; see Write.
func WriteFile(path string, data []byte) error {
	return Write(path, func(w io.Writer) error { _, err := w.Write(data); return err })
}

// SyncDir fsyncs a directory so a rename or removal in it survives a
// crash. The open must succeed; the sync is best-effort, because some
// filesystems (network mounts, tmpfs on certain kernels) refuse a
// directory fsync with EINVAL, and that is not worth failing a completed
// write over.
func SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	_ = d.Sync()
	return nil
}
