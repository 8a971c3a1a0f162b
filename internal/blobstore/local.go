package blobstore

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"

	"github.com/riveterdb/riveter/internal/faultfs"
)

// Local is a directory-backed Backend running every operation through an
// injectable faultfs.FS, so the same deterministic fault plans that
// exercise the file checkpoint stack (fail the Nth create, tear a write,
// exhaust a byte budget, crash mid-upload) apply to chunk uploads too.
//
// Objects live at <root>/<namespace>/<entry>. Put follows the repo's
// atomic protocol — write a uniquely named <name>.<seq>.tmp, fsync,
// rename into place, fsync the directory — so a name either holds a
// complete object or nothing; a
// crashed upload leaves only a .tmp orphan for GC. PutExcl writes the
// final name directly with O_EXCL: the create itself is the atomic
// claim-acquisition, and a partially written claim is removed on failure.
type Local struct {
	fsys faultfs.FS
	root string
}

// NewLocal builds a Local backend rooted at dir, creating the namespace
// directories. fsys nil means the real OS filesystem (directory creation
// always uses the OS: construction precedes any fault plan of interest).
func NewLocal(fsys faultfs.FS, dir string) (*Local, error) {
	if fsys == nil {
		fsys = faultfs.OS
	}
	for _, ns := range Namespaces() {
		if err := os.MkdirAll(filepath.Join(dir, ns), 0o755); err != nil {
			return nil, fmt.Errorf("blobstore: init %s: %w", ns, err)
		}
	}
	return &Local{fsys: fsys, root: dir}, nil
}

// path maps an object name to its file path, rejecting names that would
// escape the root.
func (l *Local) path(name string) (string, error) {
	if name == "" || strings.Contains(name, "..") || strings.HasPrefix(name, "/") {
		return "", fmt.Errorf("blobstore: invalid object name %q", name)
	}
	return filepath.Join(l.root, filepath.FromSlash(name)), nil
}

// tmpSeq makes temp-file names process-unique: two goroutines uploading
// the same chunk digest concurrently (identical content deduplicating
// across checkpoints) must not share a temp path, or one writer's
// truncate/rename races the other's.
var tmpSeq atomic.Uint64

// Put implements Backend with the tmp+fsync+rename+dirsync protocol.
func (l *Local) Put(name string, data []byte) error {
	p, err := l.path(name)
	if err != nil {
		return err
	}
	tmp := fmt.Sprintf("%s.%d.tmp", p, tmpSeq.Add(1))
	if err := faultfs.WriteAtomic(l.fsys, tmp, p, data); err != nil {
		return fmt.Errorf("blobstore: put %s: %w", name, err)
	}
	return nil
}

// PutExcl implements Backend: the O_EXCL create is the atomic acquisition,
// so the object is written in place (no tmp — a rename could not preserve
// exclusivity). A failed write removes the partial object, releasing the
// name for the next contender.
func (l *Local) PutExcl(name string, data []byte) error {
	p, err := l.path(name)
	if err != nil {
		return err
	}
	f, err := l.fsys.CreateExcl(p)
	if err != nil {
		return fmt.Errorf("blobstore: %w", err)
	}
	_, err = f.Write(data)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		_ = l.fsys.Remove(p)
		return fmt.Errorf("blobstore: put %s exclusively: %w", name, err)
	}
	if err := l.fsys.SyncDir(filepath.Dir(p)); err != nil {
		return fmt.Errorf("blobstore: sync dir for %s: %w", name, err)
	}
	return nil
}

// Get implements Backend. The buffer is sized from the file's length
// (plus the spare room ReadFrom wants before the read that finds EOF):
// objects are small and many, and io.ReadAll's growth from 512 bytes
// allocated several times their size.
func (l *Local) Get(name string) ([]byte, error) {
	p, err := l.path(name)
	if err != nil {
		return nil, err
	}
	f, err := l.fsys.Open(p)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	size := 0
	if fi, err := f.Stat(); err == nil && fi.Size() < 1<<30 {
		size = int(fi.Size())
	}
	buf := bytes.NewBuffer(make([]byte, 0, size+bytes.MinRead))
	if _, err := buf.ReadFrom(f); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// Has implements Backend. It stats through Open rather than ReadDir so
// injected open faults surface here too.
func (l *Local) Has(name string) (bool, error) {
	p, err := l.path(name)
	if err != nil {
		return false, err
	}
	f, err := l.fsys.Open(p)
	if err != nil {
		if IsNotExist(err) {
			return false, nil
		}
		return false, err
	}
	f.Close()
	return true, nil
}

// List implements Backend, skipping in-flight .tmp files (an interrupted
// Put's orphan is not an object).
func (l *Local) List(prefix string) ([]string, error) {
	ns := strings.TrimSuffix(prefix, "/")
	p, err := l.path(ns)
	if err != nil {
		return nil, err
	}
	entries, err := l.fsys.ReadDir(p)
	if err != nil {
		if IsNotExist(err) {
			return nil, nil
		}
		return nil, err
	}
	var out []string
	for _, e := range entries {
		if e.IsDir() || strings.HasSuffix(e.Name(), ".tmp") {
			continue
		}
		out = append(out, ns+"/"+e.Name())
	}
	return out, nil
}

// Delete implements Backend.
func (l *Local) Delete(name string) error {
	p, err := l.path(name)
	if err != nil {
		return err
	}
	return l.fsys.Remove(p)
}
