package checkpoint

import (
	"encoding/binary"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"github.com/riveterdb/riveter/internal/faultfs"
	"github.com/riveterdb/riveter/internal/vector"
)

// writeSample persists a representative checkpoint (non-trivial state and
// padding so every file section is present) and returns its bytes.
func writeSample(t *testing.T, dir string, padding int64) (string, []byte) {
	t.Helper()
	path := filepath.Join(dir, "sample.rvck")
	_, err := writeFS(faultfs.OS, path, Manifest{
		Kind:            "process",
		Query:           "Q9",
		PlanFingerprint: "feedfacecafebeef",
		Workers:         4,
	}, func(enc *vector.Encoder) error {
		for i := 0; i < 64; i++ {
			enc.String("sample state block for section-boundary coverage")
			enc.Uvarint(uint64(i))
		}
		return enc.Err()
	}, padding)
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return path, data
}

// sections returns the byte offset of every section boundary in a
// checkpoint image: magic | manifestLen | manifest | stateLen | state |
// crc | padding.
func sections(t testing.TB, data []byte) map[string]int64 {
	t.Helper()
	mlen := int64(binary.LittleEndian.Uint64(data[4:12]))
	var m Manifest
	stateLenOff := 12 + mlen
	stateOff := stateLenOff + 8
	if err := json.Unmarshal(data[12:12+mlen], &m); err != nil {
		t.Fatalf("sample manifest: %v", err)
	}
	crcOff := stateOff + m.StateBytes
	padOff := crcOff + 4
	end := padOff + m.PaddingBytes
	if end != int64(len(data)) {
		t.Fatalf("layout walk ends at %d, file is %d bytes", end, len(data))
	}
	return map[string]int64{
		"magic":       4,
		"manifestLen": 12,
		"manifest":    stateLenOff,
		"stateLen":    stateOff,
		"state":       crcOff,
		"crc":         padOff,
		"padding":     end,
	}
}

// TestVerifyAccepts checks the happy path: a freshly written checkpoint
// verifies and its manifest round-trips.
func TestVerifyAccepts(t *testing.T) {
	path, _ := writeSample(t, t.TempDir(), 4096)
	m, err := VerifyFS(faultfs.OS, path)
	if err != nil {
		t.Fatal(err)
	}
	if m.Query != "Q9" || m.Kind != "process" || m.PaddingBytes != 4096 {
		t.Errorf("manifest: %+v", m)
	}
}

// TestVerifyTruncationAtEveryBoundary truncates the image at every section
// boundary (and one byte to either side) and asserts Verify reports a
// clean error for each — quarantine material, never a crash or a pass.
func TestVerifyTruncationAtEveryBoundary(t *testing.T) {
	dir := t.TempDir()
	_, data := writeSample(t, dir, 4096)
	secs := sections(t, data)
	total := int64(len(data))
	for name, off := range secs {
		for _, cut := range []int64{off - 1, off, off + 1} {
			if cut < 0 || cut >= total {
				continue
			}
			p := filepath.Join(dir, "trunc")
			if err := os.WriteFile(p, data[:cut], 0o644); err != nil {
				t.Fatal(err)
			}
			if _, err := VerifyFS(faultfs.OS, p); err == nil {
				t.Errorf("truncation at %s boundary (offset %d of %d) must fail Verify", name, cut, total)
			}
		}
	}
	// The empty file is the degenerate truncation.
	p := filepath.Join(dir, "empty")
	if err := os.WriteFile(p, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := VerifyFS(faultfs.OS, p); err == nil {
		t.Error("empty file must fail Verify")
	}
}

// TestVerifyBitFlips flips a bit in each structural section and asserts
// Verify rejects the image. (Padding content is deliberately uncovered:
// only its length matters — it models image size, not data.)
func TestVerifyBitFlips(t *testing.T) {
	dir := t.TempDir()
	_, data := writeSample(t, dir, 4096)
	secs := sections(t, data)
	flips := map[string]int64{
		"magic":       1,
		"manifestLen": 5,
		"manifest":    secs["manifestLen"] + 3,
		"stateLen":    secs["manifest"] + 2,
		"state":       secs["stateLen"] + 10,
		"crc":         secs["state"] + 1,
	}
	for name, off := range flips {
		mut := append([]byte(nil), data...)
		mut[off] ^= 0x40
		p := filepath.Join(dir, "flip")
		if err := os.WriteFile(p, mut, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := VerifyFS(faultfs.OS, p); err == nil {
			t.Errorf("bit flip in %s section (offset %d) must fail Verify", name, off)
		}
	}
}

// TestVerifyMissingFile checks Verify reports absence as an error, not a
// panic.
func TestVerifyMissingFile(t *testing.T) {
	if _, err := VerifyFS(faultfs.OS, filepath.Join(t.TempDir(), "nope")); err == nil {
		t.Error("missing file must fail Verify")
	}
}

// TestQuarantine renames a corrupt file aside and leaves it inspectable.
func TestQuarantine(t *testing.T) {
	dir := t.TempDir()
	path, data := writeSample(t, dir, 0)
	data[len(data)-2] ^= 0xFF
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	qp, err := Quarantine(faultfs.OS, path)
	if err != nil {
		t.Fatal(err)
	}
	if qp != path+CorruptSuffix {
		t.Errorf("quarantine path %q", qp)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Error("original path must be gone")
	}
	if _, err := os.Stat(qp); err != nil {
		t.Errorf("quarantined evidence missing: %v", err)
	}
}

// TestSweepTemp removes only orphaned temp files.
func TestSweepTemp(t *testing.T) {
	dir := t.TempDir()
	keep, _ := writeSample(t, dir, 0)
	orphans := []string{"a.rvck.tmp", "riveter-serve.state.json.tmp"}
	for _, n := range orphans {
		if err := os.WriteFile(filepath.Join(dir, n), []byte("partial"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	removed, failed, err := SweepTemp(faultfs.OS, dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(failed) != 0 {
		t.Fatalf("sweep failures: %v", failed)
	}
	if len(removed) != len(orphans) {
		t.Errorf("removed %v", removed)
	}
	for _, n := range orphans {
		if _, err := os.Stat(filepath.Join(dir, n)); !os.IsNotExist(err) {
			t.Errorf("orphan %s survived the sweep", n)
		}
	}
	if _, err := os.Stat(keep); err != nil {
		t.Errorf("complete checkpoint swept away: %v", err)
	}
}
