package riveter

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/riveterdb/riveter/internal/faultfs"
)

// handleFS counts the files open through it.
type handleFS struct {
	faultfs.FS
	open atomic.Int64
}

func (h *handleFS) track(f faultfs.File, err error) (faultfs.File, error) {
	if err != nil {
		return nil, err
	}
	h.open.Add(1)
	return &handleFile{File: f, fs: h}, nil
}

func (h *handleFS) Create(path string) (faultfs.File, error) { return h.track(h.FS.Create(path)) }
func (h *handleFS) CreateExcl(path string) (faultfs.File, error) {
	return h.track(h.FS.CreateExcl(path))
}
func (h *handleFS) Open(path string) (faultfs.File, error) { return h.track(h.FS.Open(path)) }

type handleFile struct {
	faultfs.File
	fs   *handleFS
	once sync.Once
}

func (f *handleFile) Close() error {
	f.once.Do(func() { f.fs.open.Add(-1) })
	return f.File.Close()
}

// TestCancelledLineageRunClosesItsLog: a lineage run that ends any way but
// suspended — here cancelled — closes its log, so no file handle outlives
// the execution.
func TestCancelledLineageRunClosesItsLog(t *testing.T) {
	fsys := &handleFS{FS: faultfs.OS}
	db := Open(WithWorkers(2), WithCheckpointDir(t.TempDir()), WithFS(fsys))
	if err := db.GenerateTPCH(0.01); err != nil {
		t.Fatal(err)
	}
	q, err := db.PrepareTPCH(3)
	if err != nil {
		t.Fatal(err)
	}
	for run := 0; run < 3; run++ {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		exec, err := q.StartWithLineage(ctx, LineageConfig{})
		if err != nil {
			t.Fatal(err)
		}
		if err := exec.Wait(); !errors.Is(err, context.Canceled) {
			t.Fatalf("run %d: Wait = %v, want a cancellation", run, err)
		}
		if n := fsys.open.Load(); n != 0 {
			t.Fatalf("run %d: %d file handles open after a cancelled lineage run", run, n)
		}
		if err := db.RemoveLineage(exec.LineagePath()); err != nil {
			t.Fatal(err)
		}
	}
}
