package checkpoint

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"

	"github.com/riveterdb/riveter/internal/faultfs"
	"github.com/riveterdb/riveter/internal/vector"
)

// writeRetry is writeFS under a retry policy.
func writeRetry(ctx context.Context, fsys faultfs.FS, path string, m Manifest, save func(*vector.Encoder) error, pol RetryPolicy, onRetry func(int, error)) error {
	img, err := Encode(m, save, nil)
	if err != nil {
		return err
	}
	defer img.Release()
	return img.Write(ctx, fsys, path, pol, onRetry)
}

func sampleSave(enc *vector.Encoder) error {
	for i := 0; i < 32; i++ {
		enc.String("fault-injected checkpoint state block")
		enc.Uvarint(uint64(i * 7))
	}
	return enc.Err()
}

// TestWriteFSFailureLeavesNothing: a failed write must leave neither the
// final path nor its temp file behind.
func TestWriteFSFailureLeavesNothing(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "ck.rvck")
	for _, op := range []faultfs.Op{faultfs.OpCreate, faultfs.OpWrite, faultfs.OpSync, faultfs.OpRename} {
		inj := faultfs.New(nil).FailNth(op, 1, nil)
		if _, err := writeFS(inj, path, Manifest{Kind: "pipeline"}, sampleSave, 0); !errors.Is(err, faultfs.ErrInjected) {
			t.Fatalf("op %s: want injected error, got %v", op, err)
		}
		if _, err := os.Stat(path); !os.IsNotExist(err) {
			t.Errorf("op %s: final path exists after failed write", op)
		}
		if _, err := os.Stat(path + TempSuffix); !os.IsNotExist(err) {
			t.Errorf("op %s: temp file leaked after failed write", op)
		}
	}
}

// TestWriteRetryAbsorbsTransient: transient faults are retried away and the
// result records the attempt count.
func TestWriteRetryAbsorbsTransient(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "ck.rvck")
	inj := faultfs.New(nil).FailTransient(faultfs.OpWrite, 1, 2, nil)
	var retries int
	var lastFailed int
	err := writeRetry(context.Background(), inj, path, Manifest{Kind: "pipeline"}, sampleSave,
		RetryPolicy{Attempts: 5}, func(attempt int, err error) { retries, lastFailed = retries+1, attempt })
	if err != nil {
		t.Fatal(err)
	}
	if lastFailed != 2 || retries != 2 {
		t.Errorf("last failed attempt=%d retries=%d, want 2 and 2 (the third attempt lands)", lastFailed, retries)
	}
	if _, err := VerifyFS(faultfs.OS, path); err != nil {
		t.Errorf("retried checkpoint must verify: %v", err)
	}
}

// TestWriteRetryExhausts: persistent faults exhaust the policy and surface
// the last error.
func TestWriteRetryExhausts(t *testing.T) {
	dir := t.TempDir()
	inj := faultfs.New(nil).FailNth(faultfs.OpWrite, 1, nil)
	var retries int
	err := writeRetry(context.Background(), inj, filepath.Join(dir, "ck.rvck"),
		Manifest{Kind: "pipeline"}, sampleSave, RetryPolicy{Attempts: 3},
		func(attempt int, err error) { retries++ })
	if !errors.Is(err, faultfs.ErrInjected) {
		t.Fatalf("want injected error, got %v", err)
	}
	if retries != 2 {
		t.Errorf("retries = %d, want 2 (attempts-1)", retries)
	}
}

// TestWriteRetryHonorsContext: cancellation aborts the backoff sleep
// promptly — a failing disk cannot block shutdown.
func TestWriteRetryHonorsContext(t *testing.T) {
	dir := t.TempDir()
	inj := faultfs.New(nil).FailNth(faultfs.OpWrite, 1, nil)
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(10 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	err := writeRetry(ctx, inj, filepath.Join(dir, "ck.rvck"), Manifest{Kind: "pipeline"},
		sampleSave, RetryPolicy{Attempts: 100, BaseDelay: 10 * time.Second, MaxDelay: 10 * time.Second}, nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("cancellation took %v, backoff was not interrupted", elapsed)
	}
}

// TestWriteRetryCancelledBeforeFirstAttempt: an already-dead context never
// touches the disk.
func TestWriteRetryCancelledBeforeFirstAttempt(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	inj := faultfs.New(nil)
	err := writeRetry(ctx, inj, filepath.Join(t.TempDir(), "ck.rvck"),
		Manifest{Kind: "pipeline"}, sampleSave, RetryPolicy{Attempts: 3}, nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if inj.OpCount(faultfs.OpCreate) != 0 {
		t.Error("cancelled retry still touched the filesystem")
	}
}

// TestWriteENOSPCTornThenSmallerFits: an ENOSPC-torn write cleans up its
// temp file, freeing the space, and a smaller artifact then fits — the
// dynamics the process→pipeline degradation ladder depends on.
func TestWriteENOSPCTornThenSmallerFits(t *testing.T) {
	dir := t.TempDir()
	inj := faultfs.New(nil).WriteBudget(64 << 10)
	big := filepath.Join(dir, "process.rvck")
	if _, err := writeFS(inj, big, Manifest{Kind: "process"}, sampleSave, 1<<20); !errors.Is(err, faultfs.ErrNoSpace) {
		t.Fatalf("want ErrNoSpace, got %v", err)
	}
	if _, err := os.Stat(big + TempSuffix); !os.IsNotExist(err) {
		t.Error("torn temp file not cleaned up")
	}
	small := filepath.Join(dir, "pipeline.rvck")
	if _, err := writeFS(inj, small, Manifest{Kind: "pipeline"}, sampleSave, 0); err != nil {
		t.Fatalf("padding-free fallback must fit the freed space: %v", err)
	}
	if _, err := VerifyFS(faultfs.OS, small); err != nil {
		t.Errorf("fallback checkpoint must verify: %v", err)
	}
}

// TestCrashMatrix is the byte-exact crash matrix at the file-format level:
// for a crash at EVERY byte offset of the image, the final path either
// holds a complete image that verifies and reads back identically, or
// holds nothing (the atomic rename never happened) and only a sweepable
// .tmp orphan remains. No torn file is ever visible at the restore path.
func TestCrashMatrix(t *testing.T) {
	dir := t.TempDir()
	const padding = 512

	// Reference image: one clean write.
	refPath := filepath.Join(dir, "ref.rvck")
	refManifest, err := writeFS(faultfs.OS, refPath, Manifest{Kind: "process", Query: "QX"}, sampleSave, padding)
	if err != nil {
		t.Fatal(err)
	}
	refData, err := os.ReadFile(refPath)
	if err != nil {
		t.Fatal(err)
	}
	size := int64(len(refData))
	sections(t, refData) // fails unless the layout walk ends at the file's size

	for crashAt := int64(0); crashAt <= size; crashAt++ {
		inj := faultfs.New(nil).CrashAfterBytes(crashAt)
		path := filepath.Join(dir, "crash.rvck")
		_, werr := writeFS(inj, path, Manifest{Kind: "process", Query: "QX"}, sampleSave, padding)

		if _, err := os.Stat(path); err == nil {
			// The image made it through the rename: it must be complete.
			if werr != nil {
				// A crash after the data landed (during dir sync) may still
				// report an error; the file must nevertheless verify.
				if _, verr := VerifyFS(faultfs.OS, path); verr != nil {
					t.Fatalf("crash@%d: published file fails Verify: %v", crashAt, verr)
				}
			}
			m, verr := VerifyFS(faultfs.OS, path)
			if verr != nil {
				t.Fatalf("crash@%d: published file fails Verify: %v", crashAt, verr)
			}
			if m.TotalBytes() != refManifest.TotalBytes() {
				t.Fatalf("crash@%d: published file has wrong payload size", crashAt)
			}
			os.Remove(path)
		} else {
			// Nothing published: the write must have failed, and Verify of
			// the absent path reports a clean error.
			if werr == nil {
				t.Fatalf("crash@%d: write claimed success but published nothing", crashAt)
			}
			if _, verr := VerifyFS(faultfs.OS, path); verr == nil {
				t.Fatalf("crash@%d: Verify passed on a missing file", crashAt)
			}
		}
		// Whatever the outcome, a fresh process's sweep leaves no .tmp.
		if _, _, err := SweepTemp(faultfs.OS, dir); err != nil {
			t.Fatalf("crash@%d: sweep: %v", crashAt, err)
		}
		if _, err := os.Stat(path + TempSuffix); !os.IsNotExist(err) {
			t.Fatalf("crash@%d: .tmp survived the sweep", crashAt)
		}
	}
}

// TestCrashTornAtFinalPathQuarantines covers the defense-in-depth case the
// atomic protocol normally prevents: if a torn image somehow lands at the
// final path (e.g. written by an older build or a direct copy), Verify
// rejects it at every truncation point and Quarantine moves it aside.
func TestCrashTornAtFinalPathQuarantines(t *testing.T) {
	dir := t.TempDir()
	refPath := filepath.Join(dir, "ref.rvck")
	if _, err := writeFS(faultfs.OS, refPath, Manifest{Kind: "pipeline", Query: "QY"}, sampleSave, 64); err != nil {
		t.Fatal(err)
	}
	refData, _ := os.ReadFile(refPath)
	for cut := 0; cut < len(refData); cut += 7 {
		p := filepath.Join(dir, "torn.rvck")
		if err := os.WriteFile(p, refData[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := VerifyFS(faultfs.OS, p); err == nil {
			t.Fatalf("torn image at %d/%d bytes passed Verify", cut, len(refData))
		}
		qp, err := Quarantine(faultfs.OS, p)
		if err != nil {
			t.Fatalf("quarantine at %d: %v", cut, err)
		}
		os.Remove(qp)
	}
}
