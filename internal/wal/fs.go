package wal

import (
	"os"
	"path/filepath"
)

// File is an open log file: a segment, appended to with Write, or
// snapshot.tmp, written at offsets with WriteAt. It is an alias of an
// unnamed interface type, so a package that implements FS (the fault
// injector) can spell the same type without importing this one.
type File = interface {
	Write(p []byte) (int, error)
	WriteAt(p []byte, off int64) (int, error)
	Truncate(size int64) error
	Sync() error
	Close() error
}

// FS is every file-system operation the log makes, Open and Read included:
// the one seam between the log and the disk. Tests substitute an FS that
// records the operations or fails some of them.
type FS interface {
	MkdirAll(dir string) error
	// OpenFile opens name for writing with os.OpenFile's flags.
	OpenFile(name string, flag int) (File, error)
	ReadFile(name string) ([]byte, error)
	// Glob lists the names matching pattern, like filepath.Glob.
	Glob(pattern string) ([]string, error)
	Rename(oldname, newname string) error
	Remove(name string) error
	// SyncDir fsyncs directory dir, making the entries created, renamed
	// or removed in it durable.
	SyncDir(dir string) error
}

// OSFS is the operating system's file system, the log's default FS.
type OSFS struct{}

func (OSFS) MkdirAll(dir string) error { return os.MkdirAll(dir, 0o755) }

func (OSFS) OpenFile(name string, flag int) (File, error) {
	f, err := os.OpenFile(name, flag, 0o644)
	if err != nil {
		return nil, err // not a nil *os.File inside a non-nil File
	}
	return f, nil
}

func (OSFS) ReadFile(name string) ([]byte, error)  { return os.ReadFile(name) }
func (OSFS) Glob(pattern string) ([]string, error) { return filepath.Glob(pattern) }
func (OSFS) Rename(oldname, newname string) error  { return os.Rename(oldname, newname) }
func (OSFS) Remove(name string) error              { return os.Remove(name) }

func (OSFS) SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}
