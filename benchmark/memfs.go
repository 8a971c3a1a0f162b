package main

import (
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"github.com/riveterdb/riveter/internal/faultfs"
)

// flushPolicy is stated in every report: where persisted state goes and
// what a flush costs there.
const flushPolicy = "in-memory filesystem behind riveter.WithFS: persisting state costs the program's own work (serialize, chunk, hash, compress, copy), no system call and no device write"

// memFS keeps every file the system under test writes — checkpoints, the
// blob store's chunks and manifests, lineage logs, server state — in
// memory. Every DB the benchmark opens writes through one (riveter.WithFS).
// The sandbox's disk, even with fsync disabled, was the noisiest thing the
// benchmark touched (the blob store publishes hundreds of small files per
// checkpoint, and their latency followed the filesystem's mood, not the
// program's), and it says nothing about a cloud volume; taking it out
// leaves the work the program does to persist state. Directories are not
// modelled: the program creates the real ones itself, and a file's
// directory is just the prefix of its path.
type memFS struct {
	mu    sync.Mutex
	files map[string]*memFile
}

type memFile struct {
	data    []byte
	modTime time.Time
}

func newMemFS() *memFS { return &memFS{files: map[string]*memFile{}} }

func notExist(op, path string) error {
	return &os.PathError{Op: op, Path: path, Err: os.ErrNotExist}
}

func (m *memFS) Create(path string) (faultfs.File, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	f := &memFile{modTime: time.Now()}
	m.files[filepath.Clean(path)] = f
	return &memHandle{fs: m, file: f, name: filepath.Base(path), writable: true}, nil
}

func (m *memFS) CreateExcl(path string) (faultfs.File, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	key := filepath.Clean(path)
	if _, ok := m.files[key]; ok {
		return nil, &os.PathError{Op: "open", Path: path, Err: os.ErrExist}
	}
	f := &memFile{modTime: time.Now()}
	m.files[key] = f
	return &memHandle{fs: m, file: f, name: filepath.Base(path), writable: true}, nil
}

func (m *memFS) Open(path string) (faultfs.File, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	f, ok := m.files[filepath.Clean(path)]
	if !ok {
		return nil, notExist("open", path)
	}
	// The reader sees the bytes present now; later appends land beyond its
	// slice and never move what it holds.
	return &memHandle{fs: m, file: f, name: filepath.Base(path), rest: f.data}, nil
}

func (m *memFS) Rename(oldPath, newPath string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	f, ok := m.files[filepath.Clean(oldPath)]
	if !ok {
		return notExist("rename", oldPath)
	}
	delete(m.files, filepath.Clean(oldPath))
	m.files[filepath.Clean(newPath)] = f
	return nil
}

func (m *memFS) Remove(path string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	key := filepath.Clean(path)
	if _, ok := m.files[key]; !ok {
		return notExist("remove", path)
	}
	delete(m.files, key)
	return nil
}

func (m *memFS) ReadDir(dir string) ([]os.DirEntry, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	dir = filepath.Clean(dir)
	var out []os.DirEntry
	for path, f := range m.files {
		if filepath.Dir(path) == dir {
			out = append(out, memInfo{name: filepath.Base(path), size: int64(len(f.data)), modTime: f.modTime})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name() < out[j].Name() })
	return out, nil
}

func (*memFS) SyncDir(string) error { return nil }

// memHandle is an open file: an appending writer, or a reader over the
// bytes that were there when it was opened.
type memHandle struct {
	fs       *memFS
	file     *memFile
	name     string
	writable bool
	rest     []byte
}

func (h *memHandle) Write(p []byte) (int, error) {
	if !h.writable {
		return 0, &os.PathError{Op: "write", Path: h.name, Err: os.ErrPermission}
	}
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	h.file.data = append(h.file.data, p...)
	h.file.modTime = time.Now()
	return len(p), nil
}

func (h *memHandle) Read(p []byte) (int, error) {
	if len(h.rest) == 0 {
		return 0, io.EOF
	}
	n := copy(p, h.rest)
	h.rest = h.rest[n:]
	return n, nil
}

func (*memHandle) Close() error { return nil }
func (*memHandle) Sync() error  { return nil }

func (h *memHandle) Stat() (os.FileInfo, error) {
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	return memInfo{name: h.name, size: int64(len(h.file.data)), modTime: h.file.modTime}, nil
}

// memInfo is both the os.FileInfo and the os.DirEntry of a memFS file.
type memInfo struct {
	name    string
	size    int64
	modTime time.Time
}

func (i memInfo) Name() string               { return i.name }
func (i memInfo) Size() int64                { return i.size }
func (memInfo) Mode() fs.FileMode            { return 0o644 }
func (i memInfo) ModTime() time.Time         { return i.modTime }
func (memInfo) IsDir() bool                  { return false }
func (memInfo) Sys() any                     { return nil }
func (memInfo) Type() fs.FileMode            { return 0 }
func (i memInfo) Info() (fs.FileInfo, error) { return i, nil }
