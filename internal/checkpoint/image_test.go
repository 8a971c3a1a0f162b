package checkpoint

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/riveterdb/riveter/internal/faultfs"
	"github.com/riveterdb/riveter/internal/vector"
)

// pinClock fixes the stamp Write puts in manifests for the test's duration.
func pinClock(t testing.TB, nano int64) {
	t.Helper()
	old := nowUnixNano
	nowUnixNano = func() int64 { return nano }
	t.Cleanup(func() { nowUnixNano = old })
}

// goldenManifest and goldenSave are what testdata/parent.rvck was written
// from, with 777 bytes of padding, by the commit before images existed
// (its WriteFS; the stamp is whatever its clock read).
var goldenManifest = Manifest{Kind: "process", Query: "golden", PlanFingerprint: "feedfacecafebeef", Workers: 2, StateVersion: 2, InFlightPipelines: []int{0, 3}}

func goldenSave(enc *vector.Encoder) error {
	for i := 0; i < 48; i++ {
		enc.String("golden fixture state block")
		enc.Uvarint(uint64(i * i))
		enc.Varint(int64(-i))
		enc.Float64(float64(i) / 3)
		enc.Bool(i%3 == 0)
	}
	return enc.Err()
}

// TestGoldenParentImage pins the file format to the parent's bytes: the
// parent-written fixture reads back to the state it was written from, and
// the same image written here, clock pinned to the fixture's stamp, is the
// fixture byte for byte.
func TestGoldenParentImage(t *testing.T) {
	fixture := filepath.Join("testdata", "parent.rvck")
	want, err := os.ReadFile(fixture)
	if err != nil {
		t.Fatal(err)
	}
	m, err := ReadFS(faultfs.OS, fixture, func(dec *vector.Decoder) error {
		for i := 0; i < 48; i++ {
			s, u, v, f, b := dec.String(), dec.Uvarint(), dec.Varint(), dec.Float64(), dec.Bool()
			if s != "golden fixture state block" || u != uint64(i*i) || v != int64(-i) || f != float64(i)/3 || b != (i%3 == 0) {
				return fmt.Errorf("state block %d read back as %q %d %d %v %v", i, s, u, v, f, b)
			}
		}
		return dec.Err()
	})
	if err != nil {
		t.Fatalf("parent-written image does not restore: %v", err)
	}
	if m.PaddingBytes != 777 || m.Query != "golden" || len(m.InFlightPipelines) != 2 {
		t.Fatalf("parent-written manifest read as %+v", m)
	}

	pinClock(t, m.CreatedUnixNano)
	path := filepath.Join(t.TempDir(), "rewritten.rvck")
	if _, err := writeFS(faultfs.OS, path, goldenManifest, goldenSave, 777); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("re-written image (%d bytes) differs from the parent's (%d bytes)", len(got), len(want))
	}
}

// TestEncodeRejectsImpossiblePadding proves the writer applies the bound the
// readers do, before anything is allocated from it.
func TestEncodeRejectsImpossiblePadding(t *testing.T) {
	for _, padding := range []int64{-1, maxPayloadBytes + 1, 1 << 62} {
		img, err := Encode(Manifest{Kind: "process"}, sampleSave, func(int64) int64 { return padding })
		if err == nil {
			img.Release()
			t.Errorf("padding %d accepted", padding)
		}
	}
}

// TestRecycledPayloadIsCleared is the pool's one obligation to the format:
// an image built in a released image's buffer has zero padding, whatever the
// previous owner left there.
func TestRecycledPayloadIsCleared(t *testing.T) {
	pad := func(int64) int64 { return 1 << 16 }
	for round := 0; round < 8; round++ {
		img, err := Encode(Manifest{Kind: "process"}, sampleSave, pad)
		if err != nil {
			t.Fatal(err)
		}
		padding := img.Payload[img.Manifest.StateBytes:]
		if i := bytes.IndexFunc(padding, func(r rune) bool { return r != 0 }); i >= 0 {
			t.Fatalf("round %d: padding byte %d of the payload is not zero", round, i)
		}
		for i := range padding {
			padding[i] = 0xff
		}
		img.Release()
	}
}

// fileOf lays out a checkpoint file by hand: manifest JSON as given, a
// state-length field, state, a correct CRC over all of that, and padding —
// so a case below trips on exactly the field it falsifies.
func fileOf(manifestJSON []byte, stateLen uint64, state []byte, padding int) []byte {
	out := []byte(magic)
	out = binary.LittleEndian.AppendUint64(out, uint64(len(manifestJSON)))
	out = append(out, manifestJSON...)
	out = binary.LittleEndian.AppendUint64(out, stateLen)
	out = append(out, state...)
	out = binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(out))
	return append(out, make([]byte, padding)...)
}

// fuzzState is the payload the fuzz seed carries.
var fuzzState = []byte("forty-two bytes of state for the image fuzz")

// hostileImages is the committed seed corpus of FuzzReadImage, by name: the
// original, the original cut at every section boundary, a flipped header
// bit, sizes that are negative, terabytes, or disagree with the file, and
// trailing bytes.
func hostileImages(t testing.TB) map[string][]byte {
	t.Helper()
	pinClock(t, 1_700_000_000_000_000_000)
	img, err := Encode(Manifest{Kind: "process", Query: "fuzz", Workers: 2, StateVersion: 2}, func(enc *vector.Encoder) error {
		enc.String(string(fuzzState))
		return enc.Err()
	}, func(int64) int64 { return 64 })
	if err != nil {
		t.Fatal(err)
	}
	defer img.Release()
	path := filepath.Join(t.TempDir(), "seed.rvck")
	if err := img.Write(context.Background(), faultfs.OS, path, RetryPolicy{}, nil); err != nil {
		t.Fatal(err)
	}
	orig, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	state := img.Payload[:img.Manifest.StateBytes]
	manifest := func(stateBytes, paddingBytes int64) []byte {
		m := img.Manifest
		m.StateBytes, m.PaddingBytes = stateBytes, paddingBytes
		mj, err := json.Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		return mj
	}
	n := uint64(len(state))
	flipped := append([]byte(nil), orig...)
	flipped[20] ^= 0x10
	out := map[string][]byte{
		"original":             orig,
		"header-bit-flip":      flipped,
		"trailing-bytes":       append(append([]byte(nil), orig...), "tail"...),
		"state-negative":       fileOf(manifest(-int64(n), 64), n, state, 64),
		"padding-negative":     fileOf(manifest(int64(n), -64), n, state, 64),
		"state-terabyte":       fileOf(manifest(1<<40, 64), 1<<40, state, 64),
		"padding-terabyte":     fileOf(manifest(int64(n), 1<<40), n, state, 64),
		"padding-past-bound":   fileOf(manifest(int64(n), 1<<62), n, state, 64),
		"padding-short-of-it":  fileOf(manifest(int64(n), 65), n, state, 64),
		"padding-beyond-it":    fileOf(manifest(int64(n), 63), n, state, 64),
		"state-length-differs": fileOf(manifest(int64(n), 64), n-1, state, 64),
		"manifest-length-huge": append(append([]byte(magic), 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f), orig[12:]...),
		"manifest-not-json":    fileOf([]byte("{not json"), n, state, 64),
	}
	for name, off := range sections(t, orig) {
		out["cut-after-"+name] = orig[:min(off, int64(len(orig))-1)]
	}
	return out
}

// TestHostileImagesRejected runs the fuzz corpus as a plain test and checks
// what fuzzing cannot: that a size the file does not back is refused before
// the payload is read (hence before it is allocated — Decode takes its
// buffer only after the check).
func TestHostileImagesRejected(t *testing.T) {
	for name, data := range hostileImages(t) {
		r := &countingReader{r: bytes.NewReader(data)}
		_, err := readImage(r, int64(len(data)), func(*vector.Decoder) error { return nil })
		if name == "original" {
			if err != nil {
				t.Errorf("original: %v", err)
			}
			continue
		}
		if err == nil {
			t.Errorf("%s: accepted", name)
		}
		if strings.Contains(name, "terabyte") || strings.Contains(name, "negative") || strings.HasPrefix(name, "padding-") {
			if headLen := int64(len(data)) - int64(len(fuzzState)+1) - 4 - 64; r.n > headLen {
				t.Errorf("%s: %d bytes read, past the %d-byte header, before the sizes were refused", name, r.n, headLen)
			}
		}
	}
}

type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

// TestFuzzCorpusCommitted keeps testdata/fuzz/FuzzReadImage in step with
// hostileImages (RIVETER_GOLDEN=write regenerates it).
func TestFuzzCorpusCommitted(t *testing.T) {
	dir := filepath.Join("testdata", "fuzz", "FuzzReadImage")
	for name, data := range hostileImages(t) {
		entry := []byte(fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", data))
		path := filepath.Join(dir, name)
		if os.Getenv("RIVETER_GOLDEN") == "write" {
			if err := os.MkdirAll(dir, 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, entry, 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, entry) {
			t.Errorf("corpus entry %s is missing or stale (%v)", name, err)
		}
	}
}

// FuzzReadImage feeds arbitrary bytes to the whole-image decoder — the
// function under ReadFS and VerifyFS — and requires an error or a faithful
// restore: never a panic, a hang, or an allocation the input's own length
// does not bound. The seed corpus (testdata/fuzz/FuzzReadImage) is
// hostileImages.
func FuzzReadImage(f *testing.F) {
	orig := hostileImages(f)["original"]
	f.Add(orig)
	f.Fuzz(func(t *testing.T, data []byte) {
		var got []byte
		m, err := readImage(bytes.NewReader(data), int64(len(data)), func(dec *vector.Decoder) error {
			got = []byte(dec.String())
			return dec.Err()
		})
		if _, verr := readImage(bytes.NewReader(data), int64(len(data)), nil); err == nil && verr != nil {
			t.Fatalf("read succeeded where verify fails: %v", verr)
		}
		if err != nil {
			return
		}
		if m.TotalBytes() > int64(len(data)) {
			t.Fatalf("accepted a %d-byte payload from %d bytes of input", m.TotalBytes(), len(data))
		}
		if bytes.Equal(data, orig) && !bytes.Equal(got, fuzzState) {
			t.Fatal("the original image restored different state")
		}
	})
}
