package strategy

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"github.com/riveterdb/riveter/internal/engine"
	"github.com/riveterdb/riveter/internal/faultfs"
)

// The lineage log's crash matrix: a suspension or crash can cut the log at
// ANY byte offset, and the scanner must at every single one either reject
// the file (header/meta incomplete — the log identifies nothing) or
// logically truncate it to the longest intact record prefix. Torn records
// are never replayed.

// lineageRecordBoundaries re-frames the log and returns every record's
// end offset (ascending), starting after the file header.
func lineageRecordBoundaries(t *testing.T, data []byte) []int64 {
	t.Helper()
	var bounds []int64
	off := int64(len(lineageMagic) + 1)
	for off < int64(len(data)) {
		_, _, next, torn := readLineageRecord(data, off)
		if torn != "" {
			t.Fatalf("reference log torn at %d: %s", off, torn)
		}
		bounds = append(bounds, next)
		off = next
	}
	return bounds
}

func TestLineageCrashMatrixEveryByte(t *testing.T) {
	cat, node, _ := lineageFixture(t)
	dir := t.TempDir()
	ref := filepath.Join(dir, "ref.rvlg")
	runWithLineage(t, cat, node, ref, LineageOptions{})
	data, err := os.ReadFile(ref)
	if err != nil {
		t.Fatal(err)
	}
	bounds := lineageRecordBoundaries(t, data)
	if len(bounds) < 3 {
		t.Fatalf("reference log too small for a matrix: %d records", len(bounds))
	}
	// metaEnd is the first record boundary: the meta record's end. Below
	// it the log identifies nothing and must be rejected outright.
	metaEnd := bounds[0]

	// complete(n) is the number of intact records in an n-byte prefix.
	complete := func(n int64) int {
		c := 0
		for _, b := range bounds {
			if b <= n {
				c++
			}
		}
		return c
	}

	path := filepath.Join(dir, "cut.rvlg")
	for cut := int64(0); cut <= int64(len(data)); cut++ {
		if err := os.WriteFile(path, data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		scan, err := ScanLineage(nil, path)
		if cut < metaEnd {
			if err == nil {
				t.Fatalf("cut@%d: scan of a header-less log must fail", cut)
			}
			continue
		}
		if err != nil {
			t.Fatalf("cut@%d: %v", cut, err)
		}
		wantRecords := complete(cut)
		if scan.Records != wantRecords {
			t.Fatalf("cut@%d: %d records scanned, want %d", cut, scan.Records, wantRecords)
		}
		// The valid prefix must end exactly at the last intact record.
		wantValid := int64(len(lineageMagic) + 1)
		for _, b := range bounds {
			if b <= cut {
				wantValid = b
			}
		}
		if scan.ValidBytes != wantValid {
			t.Fatalf("cut@%d: valid bytes %d, want %d", cut, scan.ValidBytes, wantValid)
		}
		// A cut strictly between record boundaries is a torn tail.
		if torn := cut != wantValid; torn != scan.Torn() {
			t.Fatalf("cut@%d: torn = %v, want %v", cut, scan.Torn(), torn)
		}
	}
}

func TestLineageCrashMatrixReplayAtBoundaries(t *testing.T) {
	cat, node, want := lineageFixture(t)
	dir := t.TempDir()
	ref := filepath.Join(dir, "ref.rvlg")
	runWithLineage(t, cat, node, ref, LineageOptions{})
	data, err := os.ReadFile(ref)
	if err != nil {
		t.Fatal(err)
	}
	bounds := lineageRecordBoundaries(t, data)

	// Replay the log truncated at every record boundary, plus one byte
	// before and after each (torn cuts), plus each record's midpoint. The
	// replayed result must be byte-identical to the clean run at every cut
	// — a shorter valid prefix only means more replayed work, never a
	// different answer.
	cuts := map[int64]bool{}
	prev := int64(len(lineageMagic) + 1)
	for _, b := range bounds {
		cuts[b] = true
		cuts[b-1] = true
		cuts[b+1] = true
		cuts[prev+(b-prev)/2] = true
		prev = b
	}
	path := filepath.Join(dir, "cut.rvlg")
	total := int64(len(data))
	for cut := range cuts {
		if cut < bounds[0] || cut > total {
			continue // header/meta incomplete: rejected, covered above
		}
		if err := os.WriteFile(path, data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		ex, scan, err := RestoreLineage(nil, cat, node, path, engine.Options{Workers: 2})
		if err != nil {
			t.Fatalf("cut@%d: restore: %v", cut, err)
		}
		got, err := ex.Run(context.Background())
		if err != nil {
			t.Fatalf("cut@%d: replay run: %v", cut, err)
		}
		if got.SortedKey() != want {
			t.Fatalf("cut@%d: replayed result differs (valid=%d torn=%v)", cut, scan.ValidBytes, scan.Torn())
		}
	}
}

// TestLineageCrashDuringLogging crashes the log's filesystem at assorted
// byte counts while the query runs. The query itself must be unharmed (log
// faults are non-fatal by design), the seal must fail (degradation
// trigger), and the partial log left behind must scan and replay to the
// correct result.
func TestLineageCrashDuringLogging(t *testing.T) {
	cat, node, want := lineageFixture(t)
	dir := t.TempDir()
	for _, crashAt := range []int64{64, 200, 1 << 10, 4 << 10, 16 << 10, 64 << 10} {
		// Compiled plans carry per-run operator state: every executor
		// needs its own compile.
		pp, err := engine.CompileWith(node, cat, engine.CompileOptions{})
		if err != nil {
			t.Fatal(err)
		}
		inj := faultfs.New(nil).CrashAfterBytes(crashAt)
		path := filepath.Join(dir, "crash.rvlg")
		lin, err := CreateLineageLog(path, "Q3", pp.Fingerprint, 2, LineageOptions{FS: inj})
		if err != nil {
			// The crash hit inside log creation; nothing to replay.
			os.Remove(path)
			continue
		}
		ex := engine.NewExecutor(pp, engine.Options{Workers: 2, OnBreaker: lin.OnBreaker})
		ex.SuspendWhen(engine.KindProcess, 1<<19)
		if _, err := ex.Run(context.Background()); !errors.Is(err, engine.ErrSuspended) {
			t.Fatalf("crash@%d: query failed with %v; log faults must not kill the query", crashAt, err)
		}
		if inj.Crashed() {
			if _, err := lin.Seal(ex.Suspended()); err == nil {
				t.Fatalf("crash@%d: seal succeeded on a crashed log", crashAt)
			}
		} else if _, err := lin.Seal(ex.Suspended()); err != nil {
			t.Fatalf("crash@%d: seal failed without a crash: %v", crashAt, err)
		}
		lin.Close()

		// The fresh process scans whatever the crash left (through a clean
		// filesystem) and replays it.
		ex2, _, err := RestoreLineage(nil, cat, node, path, engine.Options{Workers: 2})
		if err != nil {
			t.Fatalf("crash@%d: restore: %v", crashAt, err)
		}
		got, err := ex2.Run(context.Background())
		if err != nil {
			t.Fatalf("crash@%d: replay: %v", crashAt, err)
		}
		if got.SortedKey() != want {
			t.Fatalf("crash@%d: replayed result differs", crashAt)
		}
		os.Remove(path)
	}
}
