package blobstore

import (
	"bytes"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"github.com/riveterdb/riveter/internal/checkpoint"
	"github.com/riveterdb/riveter/internal/faultfs"
	"github.com/riveterdb/riveter/internal/obs"
	"github.com/riveterdb/riveter/internal/vector"
)

// testChunking keeps chunks small so modest test states split into many.
var testChunking = ChunkParams{Min: 64, Avg: 256, Max: 1024}

// newTestStore builds a Store over a Local backend in a fresh temp dir.
func newTestStore(t *testing.T, fsys faultfs.FS, reg *obs.Registry) (*Store, string) {
	t.Helper()
	dir := t.TempDir()
	be, err := NewLocal(fsys, dir)
	if err != nil {
		t.Fatal(err)
	}
	st, err := New(Config{Backend: be, Chunking: testChunking, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	return st, dir
}

// writeSaved encodes one image — save's state, padding zero bytes — and
// persists it under key.
func writeSaved(st *Store, key string, m checkpoint.Manifest, save func(*vector.Encoder) error, padding int64, tr *obs.Trace) (*WriteResult, error) {
	img, err := checkpoint.Encode(m, save, func(int64) int64 { return padding })
	if err != nil {
		return nil, err
	}
	defer img.Release()
	return st.WriteCheckpoint(key, img, tr)
}

// WriteCheckpointBytes persists state that is already serialized — a
// hand-encoded fixture — followed by padding zero bytes. Test-only: every
// production image comes from checkpoint.Encode.
func (s *Store) WriteCheckpointBytes(key string, m checkpoint.Manifest, state []byte, padding int64, tr *obs.Trace) (*WriteResult, error) {
	m.StateBytes, m.PaddingBytes = int64(len(state)), padding
	payload := append(append(make([]byte, 0, len(state)+int(padding)), state...), make([]byte, padding)...)
	return s.WriteCheckpoint(key, &checkpoint.Image{Manifest: m, Payload: payload}, tr)
}

// payloadOf reassembles the payload sm describes.
func payloadOf(st *Store, sm StoreManifest) ([]byte, error) {
	payload := make([]byte, sm.TotalBytes())
	_, err := st.readPayload(sm, payload, nil)
	return payload, err
}

// writeBlob persists data as a checkpoint under key via the save callback.
func writeBlob(t *testing.T, st *Store, key string, data []byte, padding int64) *WriteResult {
	t.Helper()
	m := checkpoint.Manifest{Kind: "pipeline", Query: "test", Workers: 2}
	res, err := writeSaved(st, key, m, func(enc *vector.Encoder) error {
		enc.String(string(data))
		return enc.Err()
	}, padding, nil)
	if err != nil {
		t.Fatalf("write %s: %v", key, err)
	}
	return res
}

// readBlob restores the checkpoint under key and returns its data.
func readBlob(t *testing.T, st *Store, key string) ([]byte, *ReadResult) {
	t.Helper()
	var got []byte
	res, err := st.ReadCheckpoint(key, func(dec *vector.Decoder) error {
		got = []byte(dec.String())
		return dec.Err()
	}, nil)
	if err != nil {
		t.Fatalf("read %s: %v", key, err)
	}
	return got, res
}

// TestCheckpointRoundTrip proves a store checkpoint restores its state
// byte-identically, padding included in the manifest accounting.
func TestCheckpointRoundTrip(t *testing.T) {
	st, _ := newTestStore(t, nil, nil)
	data := randBytes(1, 50_000)
	res := writeBlob(t, st, "q1", data, 4096)
	if res.Chunks < 2 {
		t.Fatalf("expected multiple chunks, got %d", res.Chunks)
	}
	if res.Manifest.PaddingBytes != 4096 {
		t.Fatalf("padding %d, want 4096", res.Manifest.PaddingBytes)
	}
	got, rres := readBlob(t, st, "q1")
	if !bytes.Equal(got, data) {
		t.Fatalf("restored state differs: %d vs %d bytes", len(got), len(data))
	}
	if rres.Manifest.Query != "test" || rres.Manifest.Kind != "pipeline" {
		t.Fatalf("manifest metadata lost: %+v", rres.Manifest.Manifest)
	}
	if _, err := st.VerifyCheckpoint("q1"); err != nil {
		t.Fatalf("verify: %v", err)
	}
}

// TestDedupIdenticalState proves re-suspending identical state uploads no
// chunks at all — every chunk is a dedup hit, only the manifest moves.
func TestDedupIdenticalState(t *testing.T) {
	reg := obs.NewRegistry()
	st, _ := newTestStore(t, nil, reg)
	data := randBytes(2, 40_000)
	first := writeBlob(t, st, "a", data, 0)
	if first.DedupHits != 0 {
		t.Fatalf("first write dedup hits %d, want 0", first.DedupHits)
	}
	second := writeBlob(t, st, "b", data, 0)
	if second.DedupHits != second.Chunks {
		t.Fatalf("second write dedup %d of %d chunks, want all", second.DedupHits, second.Chunks)
	}
	if second.UploadedBytes >= first.UploadedBytes/4 {
		t.Fatalf("second write uploaded %d bytes vs first %d; expected manifest-only",
			second.UploadedBytes, first.UploadedBytes)
	}
	snap := reg.Snapshot()
	if snap.Counters[obs.MetricBlobDedupHit] != int64(second.DedupHits) {
		t.Fatalf("dedup_hit counter %d, want %d", snap.Counters[obs.MetricBlobDedupHit], second.DedupHits)
	}
	if snap.Counters[obs.MetricBlobBytesUploaded] <= 0 {
		t.Fatal("bytes_uploaded counter not recorded")
	}
}

// TestDeltaUpload proves a small edit to a large state uploads a small
// delta: most chunks dedup against the previous suspension.
func TestDeltaUpload(t *testing.T) {
	st, _ := newTestStore(t, nil, nil)
	data := randBytes(3, 200_000)
	first := writeBlob(t, st, "v1", data, 0)
	edited := append([]byte(nil), data...)
	copy(edited[100_000:], randBytes(4, 500))
	second := writeBlob(t, st, "v2", edited, 0)
	if second.DedupHits == 0 {
		t.Fatal("no dedup hits after a 500-byte edit")
	}
	if second.UploadedBytes*4 > first.UploadedBytes {
		t.Fatalf("delta upload %d bytes is not well below full upload %d",
			second.UploadedBytes, first.UploadedBytes)
	}
}

// TestPaddingDedups proves process-image padding costs almost nothing in
// the store: zero runs compress away and dedup across checkpoints.
func TestPaddingDedups(t *testing.T) {
	st, _ := newTestStore(t, nil, nil)
	data := randBytes(5, 10_000)
	plain := writeBlob(t, st, "plain", data, 0)
	padded := writeBlob(t, st, "padded", data, 1<<20)
	extra := padded.UploadedBytes - plain.UploadedBytes
	if extra > 1<<14 {
		t.Fatalf("1MiB of padding cost %d uploaded bytes; zeros should compress away", extra)
	}
	got, _ := readBlob(t, st, "padded")
	if !bytes.Equal(got, data) {
		t.Fatal("padded checkpoint restored wrong state")
	}
}

// TestCorruptChunkDetected proves a flipped bit in a stored chunk fails
// both verify and restore with an error, never silent corruption.
func TestCorruptChunkDetected(t *testing.T) {
	st, dir := newTestStore(t, nil, nil)
	writeBlob(t, st, "q", randBytes(6, 30_000), 0)
	chunkDir := filepath.Join(dir, "chunks")
	entries, err := os.ReadDir(chunkDir)
	if err != nil || len(entries) == 0 {
		t.Fatalf("no chunks on disk: %v", err)
	}
	p := filepath.Join(chunkDir, entries[len(entries)/2].Name())
	raw, err := os.ReadFile(p)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0xFF
	if err := os.WriteFile(p, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := st.VerifyCheckpoint("q"); err == nil {
		t.Fatal("verify passed over a corrupt chunk")
	}
	if _, err := st.ReadCheckpoint("q", func(*vector.Decoder) error { return nil }, nil); err == nil {
		t.Fatal("read succeeded over a corrupt chunk")
	}
}

// TestMissingChunkDetected proves verify walks the manifest end to end:
// a deleted chunk is found even though the manifest is intact.
func TestMissingChunkDetected(t *testing.T) {
	st, _ := newTestStore(t, nil, nil)
	res := writeBlob(t, st, "q", randBytes(7, 30_000), 0)
	victim := res.Manifest.Chunks[len(res.Manifest.Chunks)-1]
	if err := st.backend.Delete(chunkName(victim.Digest)); err != nil {
		t.Fatal(err)
	}
	if _, err := st.VerifyCheckpoint("q"); err == nil {
		t.Fatal("verify passed with a missing chunk")
	}
}

// TestFaultedUploadLeavesNoCheckpoint proves an injected fault during a
// chunk upload fails the write without publishing a manifest — a partial
// store checkpoint is invisible, mirroring the file protocol's atomicity.
func TestFaultedUploadLeavesNoCheckpoint(t *testing.T) {
	inj := faultfs.New(nil)
	st, _ := newTestStore(t, inj, nil)
	inj.AddFault(faultfs.Fault{Op: faultfs.OpCreate, PathSubstr: "chunks", Nth: 3})
	m := checkpoint.Manifest{Kind: "pipeline", Query: "faulted"}
	_, err := writeSaved(st, "q", m, func(enc *vector.Encoder) error {
		enc.String(string(randBytes(8, 50_000)))
		return enc.Err()
	}, 0, nil)
	if err == nil {
		t.Fatal("write succeeded under an injected chunk fault")
	}
	inj.Reset()
	if ok, _ := st.backend.Has(manifestName("q")); ok {
		t.Fatal("manifest published despite failed chunk upload")
	}
}

// TestTornChunkUploadInvisible proves a crash mid-chunk-upload leaves only
// a .tmp orphan: the chunk name never holds torn bytes, and List skips
// the orphan.
func TestTornChunkUploadInvisible(t *testing.T) {
	inj := faultfs.New(nil)
	st, _ := newTestStore(t, inj, nil)
	inj.CrashAfterBytes(600)
	m := checkpoint.Manifest{Kind: "pipeline", Query: "torn"}
	_, err := writeSaved(st, "q", m, func(enc *vector.Encoder) error {
		enc.String(string(randBytes(9, 50_000)))
		return enc.Err()
	}, 0, nil)
	if err == nil {
		t.Fatal("write survived a simulated crash")
	}
	inj.Reset()
	chunks, err := st.backend.List(nsChunks + "/")
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range chunks {
		digest := name[len(nsChunks)+1:]
		data, err := st.backend.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		raw, err := decompress(data, 1<<20)
		if err != nil {
			t.Fatalf("surviving chunk %s does not inflate: %v", shortDigest(digest), err)
		}
		if digestOf(raw) != digest {
			t.Fatalf("surviving chunk %s is torn", shortDigest(digest))
		}
	}
}

// TestClaimExclusive proves exactly one of many racing claimers wins.
func TestClaimExclusive(t *testing.T) {
	st, _ := newTestStore(t, nil, nil)
	const racers = 16
	var wg sync.WaitGroup
	wins := make(chan string, racers)
	for i := 0; i < racers; i++ {
		owner := string(rune('a' + i))
		wg.Add(1)
		go func() {
			defer wg.Done()
			ok, err := st.Claim("session-1", owner, "inst-a")
			if err != nil {
				t.Errorf("claim: %v", err)
				return
			}
			if ok {
				wins <- owner
			}
		}()
	}
	wg.Wait()
	close(wins)
	var winners []string
	for w := range wins {
		winners = append(winners, w)
	}
	if len(winners) != 1 {
		t.Fatalf("%d claimers won, want exactly 1: %v", len(winners), winners)
	}
	c, ok, err := st.ClaimInfo("session-1")
	if err != nil || !ok {
		t.Fatalf("claim info: ok=%v err=%v", ok, err)
	}
	if c.Owner != winners[0] || c.Source != "inst-a" {
		t.Fatalf("claim %+v does not match winner %s", c, winners[0])
	}
	if err := st.ReleaseClaim("session-1"); err != nil {
		t.Fatal(err)
	}
	if err := st.ReleaseClaim("session-1"); err != nil {
		t.Fatalf("release is not idempotent: %v", err)
	}
	if ok, _ := st.Claim("session-1", "late", ""); !ok {
		t.Fatal("claim not reacquirable after release")
	}
}

// TestGC proves the collector removes exactly the unreferenced chunks and
// orphaned claims, keeping shared chunks and claims with live sources.
func TestGC(t *testing.T) {
	reg := obs.NewRegistry()
	st, _ := newTestStore(t, nil, reg)
	shared := randBytes(10, 60_000)
	writeBlob(t, st, "keep", shared, 0)
	// "drop" shares every chunk of "keep" plus its own unique tail.
	dropRes := writeBlob(t, st, "drop", append(append([]byte(nil), shared...), randBytes(11, 30_000)...), 0)
	if dropRes.DedupHits == 0 {
		t.Fatal("test setup: no shared chunks between keep and drop")
	}
	if err := st.DeleteCheckpoint("drop"); err != nil {
		t.Fatal(err)
	}

	// Orphan claim: no checkpoint, no source doc. Live claim: source doc
	// still present. Claimed checkpoint: manifest exists.
	if ok, _ := st.Claim("orphan", "b", "dead-instance"); !ok {
		t.Fatal("claim orphan")
	}
	if ok, _ := st.Claim("pending", "b", "live-instance"); !ok {
		t.Fatal("claim pending")
	}
	if err := st.PutDoc("live-instance", map[string]string{"instance": "live-instance"}); err != nil {
		t.Fatal(err)
	}
	if ok, _ := st.Claim("keep", "b", ""); !ok {
		t.Fatal("claim keep")
	}

	res, err := st.GC()
	if err != nil {
		t.Fatal(err)
	}
	if res.ChunksRemoved == 0 {
		t.Fatal("GC removed no chunks though drop had unique ones")
	}
	if res.ClaimsRemoved != 1 {
		t.Fatalf("GC removed %d claims, want 1 (the orphan)", res.ClaimsRemoved)
	}
	if len(res.Failed) != 0 {
		t.Fatalf("GC failures: %v", res.Failed)
	}
	// The kept checkpoint must still restore end to end.
	got, _ := readBlob(t, st, "keep")
	if !bytes.Equal(got, shared) {
		t.Fatal("GC damaged a live checkpoint")
	}
	claims, err := st.ListClaims()
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{"pending": true, "keep": true}
	if len(claims) != 2 || !want[claims[0]] || !want[claims[1]] {
		t.Fatalf("surviving claims %v, want pending+keep", claims)
	}
	snap := reg.Snapshot()
	if snap.Counters[obs.MetricBlobGCChunks] != int64(res.ChunksRemoved) {
		t.Fatalf("gc chunk counter %d, want %d", snap.Counters[obs.MetricBlobGCChunks], res.ChunksRemoved)
	}
	// A second pass finds nothing: GC is idempotent.
	res2, err := st.GC()
	if err != nil {
		t.Fatal(err)
	}
	if res2.ChunksRemoved != 0 || res2.ClaimsRemoved != 0 {
		t.Fatalf("second GC pass removed chunks=%d claims=%d, want none",
			res2.ChunksRemoved, res2.ClaimsRemoved)
	}
}

// TestGCSkipsChunksUnderUnreadableManifest proves a corrupt manifest
// disables chunk removal (the live set is unknown) but is reported.
func TestGCSkipsChunksUnderUnreadableManifest(t *testing.T) {
	st, dir := newTestStore(t, nil, nil)
	writeBlob(t, st, "ok", randBytes(12, 20_000), 0)
	if err := os.WriteFile(filepath.Join(dir, "manifests", "bad.json"), []byte("{torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	// An unreferenced chunk that would normally be collected.
	if err := st.backend.Put(chunkName(digestOf([]byte("junk"))), []byte("junk")); err != nil {
		t.Fatal(err)
	}
	res, err := st.GC()
	if err != nil {
		t.Fatal(err)
	}
	if res.ChunksRemoved != 0 {
		t.Fatalf("GC removed %d chunks despite an unreadable manifest", res.ChunksRemoved)
	}
	if len(res.Failed) == 0 {
		t.Fatal("unreadable manifest not reported")
	}
}

// TestDocsRoundTrip exercises the state-document layer migration rides on.
func TestDocsRoundTrip(t *testing.T) {
	st, _ := newTestStore(t, nil, nil)
	type doc struct {
		Instance string   `json:"instance"`
		Sessions []string `json:"sessions"`
	}
	in := doc{Instance: "a", Sessions: []string{"s1", "s2"}}
	if err := st.PutDoc("a", in); err != nil {
		t.Fatal(err)
	}
	var out doc
	if err := st.GetDoc("a", &out); err != nil {
		t.Fatal(err)
	}
	if out.Instance != in.Instance || len(out.Sessions) != 2 {
		t.Fatalf("doc round trip: %+v", out)
	}
	names, err := st.ListDocs()
	if err != nil || len(names) != 1 || names[0] != "a" {
		t.Fatalf("list docs %v err=%v", names, err)
	}
	if err := st.DeleteDoc("a"); err != nil {
		t.Fatal(err)
	}
	if err := st.DeleteDoc("a"); err != nil {
		t.Fatalf("doc delete not idempotent: %v", err)
	}
	if err := st.GetDoc("a", &out); err == nil || !IsNotExist(err) {
		t.Fatalf("deleted doc still readable (err=%v)", err)
	}
}

// TestValidateKey rejects names that could escape the store layout.
func TestValidateKey(t *testing.T) {
	for _, bad := range []string{"", "a/b", `a\b`, ".", ".."} {
		if err := ValidateKey(bad); err == nil {
			t.Errorf("key %q accepted", bad)
		}
	}
	if err := ValidateKey("session-a-12"); err != nil {
		t.Errorf("valid key rejected: %v", err)
	}
}

// TestPropertyRoundTrip is the satellite property test: random state
// sizes round-trip chunk→dedup→reassemble byte-identically, interleaved
// across goroutines so -race sees concurrent store use.
func TestPropertyRoundTrip(t *testing.T) {
	st, _ := newTestStore(t, nil, nil)
	rng := rand.New(rand.NewSource(99))
	sizes := []int{0, 1, 17, 255, 256, 4095}
	for i := 0; i < 10; i++ {
		sizes = append(sizes, rng.Intn(300_000))
	}
	var wg sync.WaitGroup
	for i, n := range sizes {
		key := "prop-" + strings.Repeat("x", i%3) + string(rune('a'+i))
		data := randBytes(int64(1000+i), n)
		padding := int64(0)
		if i%3 == 0 {
			padding = int64(rng.Intn(10_000))
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			m := checkpoint.Manifest{Kind: "pipeline", Query: key}
			if _, err := st.WriteCheckpointBytes(key, m, data, padding, nil); err != nil {
				t.Errorf("%s: write: %v", key, err)
				return
			}
			sm, err := st.VerifyCheckpoint(key)
			if err != nil {
				t.Errorf("%s: verify: %v", key, err)
				return
			}
			if sm.StateBytes != int64(len(data)) || sm.PaddingBytes != padding {
				t.Errorf("%s: manifest sizes %d/%d want %d/%d",
					key, sm.StateBytes, sm.PaddingBytes, len(data), padding)
				return
			}
			payload, err := payloadOf(st, sm)
			if err != nil {
				t.Errorf("%s: read: %v", key, err)
				return
			}
			if !bytes.Equal(payload[:sm.StateBytes], data) {
				t.Errorf("%s: state not byte-identical after round trip", key)
			}
			for _, b := range payload[sm.StateBytes:] {
				if b != 0 {
					t.Errorf("%s: padding not zero after round trip", key)
					break
				}
			}
		}()
	}
	wg.Wait()
}
