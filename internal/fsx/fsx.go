// Package fsx holds the crash-safe filesystem idiom shared by everything
// in this repository that persists an artifact: the checkpoint writer
// (internal/protocol) and the scenario lab's results tree (internal/lab).
//
// The idiom is tmp + fsync + rename + directory fsync. The rename alone
// makes a write atomic against a process kill, but not durable: after a
// system crash shortly after the rename, a file whose data was never
// fsynced can legally come back zero-length — a torn summary.json or
// checkpoint that a resume would half-trust. The atomicwrite analyzer
// (internal/lint) flags any os.Rename finalization that bypasses this
// package's ordering.
package fsx

import (
	"os"
	"path/filepath"
)

// WriteFileAtomic writes data to path via a temp file in the same
// directory, fsync, and an atomic rename, so neither a process kill
// mid-write nor a system crash shortly after leaves a torn or empty
// file. Each call writes its own uniquely named temp file, so concurrent
// writers of one path (a worker that has gone silent but still runs and
// the survivor that took over its shard, say) never rename each other's
// temp file away: each rename installs one complete file, and the last
// one wins. dir, when non-nil, is an already-open handle on path's parent
// directory used to make the rename itself durable without re-opening
// the directory on every write; a nil dir falls back to a per-write
// open. The directory fsync is best-effort either way: some
// platforms/filesystems refuse it, and the rename is already atomic for
// process-level crashes.
func WriteFileAtomic(path string, data []byte, dir *os.File) error {
	f, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".*.tmp")
	if err != nil {
		return err
	}
	tmp := f.Name()
	_, err = f.Write(data)
	if err == nil {
		err = f.Chmod(0o644) // CreateTemp's 0600 would hide artifacts from other readers
	}
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	if dir != nil {
		_ = dir.Sync()
	} else if d, err := os.Open(filepath.Dir(path)); err == nil {
		_ = d.Sync()
		d.Close()
	}
	return nil
}
