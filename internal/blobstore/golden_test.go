package blobstore

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"github.com/riveterdb/riveter/internal/checkpoint"
)

// mixedBytes returns deterministic data shaped like serialized state:
// stretches of random bytes, runs of one value and copies of earlier
// stretches, so flate has matches to find and the chunker has zero runs.
func mixedBytes(seed int64, n int) []byte {
	rng := rand.New(rand.NewSource(seed))
	out := make([]byte, 0, n+256)
	for len(out) < n {
		run := 16 + rng.Intn(240)
		switch rng.Intn(4) {
		case 0:
			b := make([]byte, run)
			rng.Read(b)
			out = append(out, b...)
		case 1:
			out = append(out, bytes.Repeat([]byte{byte(rng.Intn(4))}, run)...)
		case 2:
			out = append(out, make([]byte, run)...)
		default:
			if len(out) > run {
				at := rng.Intn(len(out) - run)
				out = append(out, out[at:at+run]...)
			}
		}
	}
	return out[:n]
}

// goldenPayloads are the three fixed images of the byte-identity test.
var goldenPayloads = []struct {
	key     string
	kind    string
	state   []byte
	padding int64
}{
	{"pipeline", "pipeline", mixedBytes(101, 156_721), 0},
	{"process", "process", mixedBytes(102, 212_337), 5_500_768},
	{"one-chunk", "pipeline", mixedBytes(103, 1_000), 0},
}

// storeDigest is the sha256 over every object under dir, name and content,
// in name order.
func storeDigest(t *testing.T, dir string) string {
	t.Helper()
	var names []string
	err := filepath.Walk(dir, func(p string, fi os.FileInfo, err error) error {
		if err == nil && !fi.IsDir() {
			names = append(names, p)
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(names)
	h := sha256.New()
	for _, p := range names {
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		rel, _ := filepath.Rel(dir, p)
		fmt.Fprintf(h, "%s\n%d\n", filepath.ToSlash(rel), len(data))
		h.Write(data)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// fixedClock pins the manifests' creation stamp for the test's duration.
func fixedClock(t testing.TB) {
	t.Helper()
	old := nowUnixNano
	nowUnixNano = func() int64 { return 1_700_000_000_000_000_000 }
	t.Cleanup(func() { nowUnixNano = old })
}

// TestStoredObjectsByteIdentical pins the stored form — chunk names, chunk
// bytes, manifest bytes — of three fixed images written with the default
// chunking to the digests the parent of the pipeline rewrite produced
// (recorded there by running this test with RIVETER_GOLDEN=print). Pooled
// flate writers, the zero-run step in the cutter and the repeat rule must
// all leave the objects exactly as they were, or stores written before the
// rewrite would stop deduplicating against stores written after it.
func TestStoredObjectsByteIdentical(t *testing.T) {
	fixedClock(t)
	want := map[string]string{
		"pipeline":  "451a44ad9d252ba50e57735eed634f6e672a2550d40519201cc0e8162614fefa",
		"process":   "0ee928e42a54bff69a51715e7e92034953088ba405807a8db19f7ca8d700e7c7",
		"one-chunk": "8bb00e072cb4bf3bf7ee2d8aa6225f3d5c83bfc1d8904a8a6b32f76b6ba8822b",
	}
	for _, p := range goldenPayloads {
		dir := t.TempDir()
		local, err := NewLocal(nil, dir)
		if err != nil {
			t.Fatal(err)
		}
		st, err := New(Config{Backend: local})
		if err != nil {
			t.Fatal(err)
		}
		m := checkpoint.Manifest{Kind: p.kind, Query: "golden-" + p.key, Workers: 2, StateVersion: 2}
		// Twice under the same key: the second write finds every chunk
		// stored and must republish the same manifest bytes.
		for i := 0; i < 2; i++ {
			if _, err := st.WriteCheckpointBytes(p.key, m, p.state, p.padding, nil); err != nil {
				t.Fatal(err)
			}
		}
		got := storeDigest(t, dir)
		if os.Getenv("RIVETER_GOLDEN") == "print" {
			t.Logf("golden %q: %q", p.key, got)
			continue
		}
		if got != want[p.key] {
			t.Errorf("%s: stored objects hash to %s, the parent's to %s", p.key, got, want[p.key])
		}
	}
}

// TestParentWrittenStoreRestores proves a store directory written before
// the pipeline rewrite (testdata/parent-store: 6,000 state bytes and 9,000
// of padding under {256, 1024, 4096} chunking, whose padding repeats one
// chunk) verifies and restores, whatever chunking the reader is set to.
func TestParentWrittenStoreRestores(t *testing.T) {
	dir := t.TempDir()
	for _, ns := range []string{nsChunks, nsManifests} {
		entries, err := os.ReadDir(filepath.Join("testdata", "parent-store", ns))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Join(dir, ns), 0o755); err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			data, err := os.ReadFile(filepath.Join("testdata", "parent-store", ns, e.Name()))
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(dir, ns, e.Name()), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	local, err := NewLocal(nil, dir)
	if err != nil {
		t.Fatal(err)
	}
	st, err := New(Config{Backend: local})
	if err != nil {
		t.Fatal(err)
	}
	sm, err := st.VerifyCheckpoint("old")
	if err != nil {
		t.Fatalf("verify: %v", err)
	}
	if sm.Query != "parent-written" || sm.StateBytes != 6_000 || sm.PaddingBytes != 9_000 {
		t.Fatalf("manifest %+v", sm.Manifest)
	}
	payload, err := payloadOf(st, sm)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(payload[:6_000], mixedBytes(104, 6_000)) || !bytes.Equal(payload[6_000:], make([]byte, 9_000)) {
		t.Fatal("parent-written checkpoint restored different bytes")
	}
}

// TestGCKeepsExactlyReferencedChunks writes the three golden images into
// one store, drops one, and checks the chunk namespace afterwards holds
// exactly the digests the surviving manifests list — repeats within an
// image and chunks shared between images included once.
func TestGCKeepsExactlyReferencedChunks(t *testing.T) {
	local, err := NewLocal(nil, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	st, err := New(Config{Backend: local})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range goldenPayloads {
		m := checkpoint.Manifest{Kind: p.kind, Query: p.key}
		if _, err := st.WriteCheckpointBytes(p.key, m, p.state, p.padding, nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.DeleteCheckpoint("pipeline"); err != nil {
		t.Fatal(err)
	}
	if _, err := st.GC(); err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{}
	for _, key := range []string{"process", "one-chunk"} {
		sm, err := st.VerifyCheckpoint(key)
		if err != nil {
			t.Fatalf("%s after GC: %v", key, err)
		}
		for _, ref := range sm.Chunks {
			want[chunkName(ref.Digest)] = true
		}
	}
	got, err := local.List(nsChunks + "/")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("%d chunks stored after GC, %d referenced", len(got), len(want))
	}
	for _, name := range got {
		if !want[name] {
			t.Fatalf("GC kept unreferenced %s", name)
		}
	}
}
