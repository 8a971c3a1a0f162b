package riveter

import (
	"context"
	"testing"
	"time"

	"github.com/riveterdb/riveter/internal/cloud"
	"github.com/riveterdb/riveter/internal/obs"
)

// openTPCHStore opens a TPC-H database whose checkpoints target a blob
// store rooted at dir (shared between instances in the migration tests).
func openTPCHStore(t testing.TB, sf float64, dir string) *DB {
	t.Helper()
	db := Open(WithWorkers(2), WithCheckpointDir(t.TempDir()), WithBlobStore(StoreConfig{Dir: dir}))
	if _, err := db.BlobStore(); err != nil {
		t.Fatal(err)
	}
	if err := db.GenerateTPCH(sf); err != nil {
		t.Fatal(err)
	}
	return db
}

// suspendTPCH prepares query id and suspends it at the given level.
func suspendTPCH(t *testing.T, db *DB, id int, k Strategy) (*Query, *Execution) {
	t.Helper()
	q, err := db.PrepareTPCH(id)
	if err != nil {
		t.Fatal(err)
	}
	return q, suspendArmed(t, q, k)
}

// TestStoreCheckpointDedupAcrossSuspensions is the tentpole's acceptance
// test: suspending the same TPC-H query repeatedly uploads measurably
// fewer bytes, because the content-addressed store deduplicates chunks
// already uploaded. The second persist of the same suspended state must
// show a 100% dedup hit rate and upload only the (compressed) manifest.
func TestStoreCheckpointDedupAcrossSuspensions(t *testing.T) {
	db := openTPCHStore(t, 0.02, t.TempDir())
	q, exec := suspendTPCH(t, db, 3, PipelineLevel)
	want, err := q.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	first, err := exec.CheckpointToStore("q3-sus-1")
	if err != nil {
		t.Fatal(err)
	}
	if first.Kind != "pipeline" || first.Chunks == 0 || first.UploadedBytes <= 0 {
		t.Fatalf("first store checkpoint = %+v", first)
	}

	second, err := exec.CheckpointToStore("q3-sus-2")
	if err != nil {
		t.Fatal(err)
	}
	if second.DedupHits == 0 {
		t.Fatal("second suspension had zero dedup hits")
	}
	if second.DedupHits != second.Chunks {
		t.Errorf("identical state: %d/%d chunks deduplicated", second.DedupHits, second.Chunks)
	}
	if second.UploadedBytes >= first.UploadedBytes {
		t.Errorf("second suspension uploaded %d bytes, first %d — dedup saved nothing",
			second.UploadedBytes, first.UploadedBytes)
	}

	// The dedup hit rate is also visible in the store's metrics.
	snap := db.Metrics().Snapshot()
	if snap.Counters[obs.MetricBlobDedupHit] == 0 {
		t.Error("blobstore dedup-hit counter never incremented")
	}

	// Both keys restore to the same completed result as a clean run.
	for _, key := range []string{"q3-sus-1", "q3-sus-2"} {
		if _, err := db.Verify(storePoint(key)); err != nil {
			t.Fatalf("verify %s: %v", key, err)
		}
		if res := finishFrom(t, q, storePoint(key)); res.SortedKey() != want.SortedKey() {
			t.Errorf("resume %s differs from clean run", key)
		}
	}
}

// TestCrossInstanceMigration is the migration acceptance path at the
// library level: instance A suspends a query into a shared store and
// dies; instance B — a separate DB over the same data and store
// directory — claims the checkpoint and completes the query with
// identical results.
func TestCrossInstanceMigration(t *testing.T) {
	storeDir := t.TempDir()

	dbA := openTPCHStore(t, 0.02, storeDir)
	q, exec := suspendTPCH(t, dbA, 3, PipelineLevel)
	want, err := q.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := exec.CheckpointToStore("migrate-q3"); err != nil {
		t.Fatal(err)
	}
	// Instance A is done; everything B needs is in the store.

	dbB := openTPCHStore(t, 0.02, storeDir)
	stB, err := dbB.BlobStore()
	if err != nil {
		t.Fatal(err)
	}
	keys, err := stB.ListCheckpoints()
	if err != nil || len(keys) != 1 || keys[0] != "migrate-q3" {
		t.Fatalf("instance B sees checkpoints %v, %v", keys, err)
	}
	ok, err := stB.Claim("migrate-q3", "instance-b", "")
	if err != nil || !ok {
		t.Fatalf("claim = %v, %v", ok, err)
	}
	// A second claimer (a third instance racing B) must lose.
	if ok, _ := stB.Claim("migrate-q3", "instance-c", ""); ok {
		t.Fatal("double claim succeeded")
	}

	qB, err := dbB.PrepareTPCH(3)
	if err != nil {
		t.Fatal(err)
	}
	if res := finishFrom(t, qB, storePoint("migrate-q3")); res.SortedKey() != want.SortedKey() {
		t.Error("migrated result differs from instance A's clean run")
	}
	if err := stB.ReleaseClaim("migrate-q3"); err != nil {
		t.Fatal(err)
	}
}

// TestStoreCalibrationFeedsCostModel checks satellite 6 end to end: a DB
// opened over a bandwidth-shaped remote store calibrates the cost model
// against that link (not the local disk), and the calibrated numbers are
// published as gauges on the metrics registry.
func TestStoreCalibrationFeedsCostModel(t *testing.T) {
	db := Open(WithCheckpointDir(t.TempDir()), WithBlobStore(StoreConfig{
		Dir: t.TempDir(),
		Net: cloud.NetProfile{
			Latency:             2 * time.Millisecond,
			UploadBytesPerSec:   256 << 20,
			DownloadBytesPerSec: 256 << 20,
		},
	}))
	if _, err := db.BlobStore(); err != nil {
		t.Fatal(err)
	}
	prof := db.IOProfile()
	if !prof.StoreBacked() {
		t.Fatal("profile not store-backed after WithBlobStore")
	}
	if prof.UploadBytesPerSec <= 0 || prof.DownloadBytesPerSec <= 0 {
		t.Fatalf("store bandwidths not calibrated: %+v", prof)
	}
	// The simulated link caps at 256 MB/s; the measured number must not
	// wildly exceed it (local FS speed would be orders of magnitude more).
	if prof.UploadBytesPerSec > 2*256<<20 {
		t.Errorf("calibrated upload %.0f B/s ignores the simulated 256 MB/s link", prof.UploadBytesPerSec)
	}
	if prof.UploadFixedLatency < time.Millisecond {
		t.Errorf("calibrated fixed latency %v misses the simulated 2ms RTT", prof.UploadFixedLatency)
	}
	// Suspension latency estimates now price against the link.
	if got := prof.SuspendLatency(256 << 20); got < 500*time.Millisecond {
		t.Errorf("SuspendLatency(256MB) = %v; store terms not used", got)
	}

	snap := db.Metrics().Snapshot()
	if snap.Gauges[obs.MetricIOUploadBps] <= 0 {
		t.Error("upload bandwidth gauge not published")
	}
	if snap.Gauges[obs.MetricIOUploadLatency] <= 0 {
		t.Error("upload latency gauge not published")
	}
	if snap.Gauges[obs.MetricIOWriteBps] <= 0 {
		t.Error("local write bandwidth gauge not published")
	}
}

// TestBlobStoreUnconfigured checks the error surface of every store
// method on a DB without a store.
func TestBlobStoreUnconfigured(t *testing.T) {
	db := openTPCH(t, 0.005)
	if _, err := db.BlobStore(); err == nil {
		t.Error("BlobStore on storeless DB must error")
	}
	if _, err := db.Verify(storePoint("x")); err == nil {
		t.Error("Verify of a store point on storeless DB must error")
	}
	q, err := db.PrepareTPCH(6)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := q.StartFromStore(context.Background(), "x"); err == nil {
		t.Error("StartFromStore on storeless DB must error")
	}
}
