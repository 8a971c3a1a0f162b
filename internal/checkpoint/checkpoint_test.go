package checkpoint

import (
	"context"
	"os"
	"path/filepath"
	"testing"

	"github.com/riveterdb/riveter/internal/faultfs"
	"github.com/riveterdb/riveter/internal/vector"
)

// writeFS encodes one image — save's state, padding zero bytes — and writes
// it to path in a single attempt, returning the image's manifest.
func writeFS(fsys faultfs.FS, path string, m Manifest, save func(*vector.Encoder) error, padding int64) (Manifest, error) {
	img, err := Encode(m, save, func(int64) int64 { return padding })
	if err != nil {
		return Manifest{}, err
	}
	defer img.Release()
	return img.Manifest, img.Write(context.Background(), fsys, path, RetryPolicy{}, nil)
}

func TestWriteReadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "ck.rvck")
	m := Manifest{
		Kind:            "pipeline",
		Query:           "Q3",
		PlanFingerprint: "deadbeefcafef00d",
		Workers:         4,
	}
	wm, err := writeFS(faultfs.OS, path, m, func(enc *vector.Encoder) error {
		enc.String("state-payload")
		enc.Uvarint(12345)
		enc.Float64(3.5)
		return enc.Err()
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if wm.StateBytes <= 0 {
		t.Errorf("bad written manifest %+v", wm)
	}

	var gotS string
	var gotU uint64
	var gotF float64
	rm, err := ReadFS(faultfs.OS, path, func(dec *vector.Decoder) error {
		gotS = dec.String()
		gotU = dec.Uvarint()
		gotF = dec.Float64()
		return dec.Err()
	})
	if err != nil {
		t.Fatal(err)
	}
	if gotS != "state-payload" || gotU != 12345 || gotF != 3.5 {
		t.Errorf("payload mismatch: %q %d %v", gotS, gotU, gotF)
	}
	if rm.Query != "Q3" || rm.Workers != 4 {
		t.Errorf("manifest mismatch: %+v", rm)
	}

	mf, err := VerifyFS(faultfs.OS, path)
	if err != nil || mf.PlanFingerprint != "deadbeefcafef00d" {
		t.Errorf("VerifyFS: %+v, %v", mf, err)
	}
}

func TestPaddingWrittenAndVerified(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "ck.rvck")
	const padding = 100000
	wm, err := writeFS(faultfs.OS, path, Manifest{Kind: "process", Query: "Q1"}, func(enc *vector.Encoder) error {
		enc.String("small")
		return enc.Err()
	}, padding)
	if err != nil {
		t.Fatal(err)
	}
	if wm.PaddingBytes != padding {
		t.Errorf("padding = %d", wm.PaddingBytes)
	}
	if st, err := os.Stat(path); err != nil || st.Size() < padding {
		t.Errorf("file size %v < padding %d (%v)", st, padding, err)
	}
	if wm.TotalBytes() != wm.StateBytes+padding {
		t.Error("TotalBytes wrong")
	}
	if _, err := ReadFS(faultfs.OS, path, func(dec *vector.Decoder) error {
		_ = dec.String()
		return dec.Err()
	}); err != nil {
		t.Fatal(err)
	}

	// Truncated padding must be detected.
	data, _ := os.ReadFile(path)
	if err := os.WriteFile(path, data[:len(data)-1000], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadFS(faultfs.OS, path, func(dec *vector.Decoder) error {
		_ = dec.String()
		return dec.Err()
	}); err == nil {
		t.Error("truncated checkpoint must fail to read")
	}
}

func TestCorruptStateDetected(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "ck.rvck")
	if _, err := writeFS(faultfs.OS, path, Manifest{Kind: "pipeline"}, func(enc *vector.Encoder) error {
		for i := 0; i < 100; i++ {
			enc.String("block of state data that will be corrupted")
		}
		return enc.Err()
	}, 0); err != nil {
		t.Fatal(err)
	}
	data, _ := os.ReadFile(path)
	data[len(data)-50] ^= 0xFF // inside state payload (no padding here)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := ReadFS(faultfs.OS, path, func(dec *vector.Decoder) error {
		for i := 0; i < 100; i++ {
			_ = dec.String()
		}
		return nil // swallow decode errors; CRC must still catch it
	})
	if err == nil {
		t.Error("corrupted state must fail CRC")
	}
}

func TestReadRejectsGarbage(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "bad")
	if err := os.WriteFile(path, []byte("not a checkpoint at all"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadFS(faultfs.OS, path, func(*vector.Decoder) error { return nil }); err == nil {
		t.Error("garbage must be rejected")
	}
	if _, err := VerifyFS(faultfs.OS, path); err == nil {
		t.Error("garbage manifest must be rejected")
	}
	if _, err := ReadFS(faultfs.OS, filepath.Join(dir, "missing"), func(*vector.Decoder) error { return nil }); err == nil {
		t.Error("missing file must fail")
	}
}
