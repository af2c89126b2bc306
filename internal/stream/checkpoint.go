package stream

import (
	"encoding/gob"
	"fmt"
	"os"
	"path/filepath"

	"fekf/internal/guard"
)

// WriteGobAtomic writes v gob-encoded to path via a fsynced temp file and
// an atomic rename, so a crash mid-write never corrupts an existing
// checkpoint.
func WriteGobAtomic(path string, v any) error {
	f, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp-")
	if err != nil {
		return err
	}
	tmp := f.Name()
	if err := gob.NewEncoder(f).Encode(v); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("stream: encode checkpoint %s: %w", path, err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	// The rename is durable only once the directory entry is: fsync the
	// parent so a power loss cannot forget the just-renamed checkpoint.
	return guard.SyncDir(filepath.Dir(path))
}
