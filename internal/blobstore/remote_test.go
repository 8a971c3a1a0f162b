package blobstore

import (
	"bytes"
	"testing"
	"time"

	"github.com/riveterdb/riveter/internal/checkpoint"
	"github.com/riveterdb/riveter/internal/cloud"
	"github.com/riveterdb/riveter/internal/obs"
	"github.com/riveterdb/riveter/internal/vector"
)

// newRemoteStore builds a Store over a Remote-wrapped Local backend with
// a recorded (not slept) delay total.
func newRemoteStore(t *testing.T, net cloud.NetProfile) (*Store, *time.Duration) {
	t.Helper()
	local, err := NewLocal(nil, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	remote := NewRemote(local, net)
	var total time.Duration
	remote.sleep = func(d time.Duration) { total += d }
	st, err := New(Config{Backend: remote, Chunking: testChunking, Metrics: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	return st, &total
}

// TestRemoteChargesBandwidthAndLatency proves every store operation pays
// the configured link: a checkpoint write through a 1MB/s, 10ms-RTT
// profile accumulates at least latency-per-op plus bytes/bandwidth.
func TestRemoteChargesBandwidthAndLatency(t *testing.T) {
	net := cloud.NetProfile{
		Latency:           10 * time.Millisecond,
		UploadBytesPerSec: 1 << 20,
	}
	st, total := newRemoteStore(t, net)
	m := checkpoint.Manifest{Kind: "pipeline", Query: "remote"}
	res, err := writeSaved(st, "q", m, func(enc *vector.Encoder) error {
		enc.String(string(randBytes(42, 100_000)))
		return enc.Err()
	}, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Each chunk pays Has (latency) + Put (latency + transfer); the
	// manifest pays one more Put. Lower-bound the charged time.
	minLatency := time.Duration(2*res.Chunks+1) * net.Latency
	minTransfer := net.UploadDelay(int(res.UploadedBytes))
	if *total < minLatency+minTransfer/2 {
		t.Fatalf("charged %v, want at least ~%v", *total, minLatency+minTransfer)
	}
}

// TestRemoteDedupSkipsTransfer proves the dedup path pays only the
// control-plane probe, not the data-plane upload: re-writing identical
// state charges far less simulated time.
func TestRemoteDedupSkipsTransfer(t *testing.T) {
	net := cloud.NetProfile{UploadBytesPerSec: 1 << 20}
	st, total := newRemoteStore(t, net)
	data := randBytes(43, 200_000)
	m := checkpoint.Manifest{Kind: "pipeline", Query: "remote"}
	save := func(enc *vector.Encoder) error {
		enc.String(string(data))
		return enc.Err()
	}
	if _, err := writeSaved(st, "v1", m, save, 0, nil); err != nil {
		t.Fatal(err)
	}
	firstCharge := *total
	*total = 0
	if _, err := writeSaved(st, "v2", m, save, 0, nil); err != nil {
		t.Fatal(err)
	}
	// The dedup write still pays the compressed manifest upload, so
	// compare against the data-plane-dominated first write.
	if *total*3 > firstCharge {
		t.Fatalf("dedup write charged %v vs full write %v; transfers not skipped", *total, firstCharge)
	}
}

// TestRemoteRestoreChargesDownload proves restores pay download bandwidth.
func TestRemoteRestoreChargesDownload(t *testing.T) {
	net := cloud.NetProfile{DownloadBytesPerSec: 1 << 20}
	st, total := newRemoteStore(t, net)
	data := randBytes(44, 100_000)
	m := checkpoint.Manifest{Kind: "pipeline", Query: "remote"}
	if _, err := writeSaved(st, "q", m, func(enc *vector.Encoder) error {
		enc.String(string(data))
		return enc.Err()
	}, 0, nil); err != nil {
		t.Fatal(err)
	}
	*total = 0
	var got []byte
	rres, err := st.ReadCheckpoint("q", func(dec *vector.Decoder) error {
		got = []byte(dec.String())
		return dec.Err()
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("remote restore corrupted state")
	}
	want := net.DownloadDelay(int(rres.DownloadedBytes))
	if *total < want/2 {
		t.Fatalf("restore charged %v, want at least ~%v", *total, want)
	}
}
