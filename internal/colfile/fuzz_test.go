package colfile

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"github.com/riveterdb/riveter/internal/catalog"
	"github.com/riveterdb/riveter/internal/vector"
)

// fuzzSchema is the seeds' schema: a delta-coded int, a dictionary-coded
// and a raw string column, and a float.
var fuzzSchema = catalog.NewSchema(
	catalog.Col("k", vector.TypeInt64),
	catalog.Col("status", vector.TypeString),
	catalog.Col("note", vector.TypeString),
	catalog.Col("price", vector.TypeFloat64),
)

// fuzzChunk is rows rows of fuzzSchema, every fifth note NULL.
func fuzzChunk(rows int) *vector.Chunk {
	c := vector.NewChunk(fuzzSchema.Types())
	for i := 0; i < rows; i++ {
		note := vector.NewString(fmt.Sprintf("note %d", i*7919%1000))
		if i%5 == 0 {
			note = vector.NewNull(vector.TypeString)
		}
		c.AppendRowValues(vector.NewInt64(int64(i)), vector.NewString([]string{"A", "F", "O"}[i%3]), note, vector.NewFloat64(float64(i)/4))
	}
	return c
}

// writeFuzzFile writes rows rows through a Writer; before Close, ragged
// appends one value to the pending block's first column only.
func writeFuzzFile(tb testing.TB, rows int, ragged bool) []byte {
	tb.Helper()
	path := filepath.Join(tb.TempDir(), "seed.rvc")
	w, err := NewWriter(path, "fuzz", fuzzSchema)
	if err != nil {
		tb.Fatal(err)
	}
	if err := w.WriteChunk(fuzzChunk(rows)); err != nil {
		tb.Fatal(err)
	}
	if ragged {
		w.pending.Col(0).AppendInt64(-1)
	}
	if err := w.Close(); err != nil {
		tb.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		tb.Fatal(err)
	}
	return data
}

// hostileColfiles are FuzzReadTable's seeds: a valid file, the same file
// cut short, a block whose columns disagree on their length, and a footer
// that claims 2^40 rows.
func hostileColfiles(tb testing.TB) map[string][]byte {
	valid := writeFuzzFile(tb, 40, false)
	footerOff := int64(binary.LittleEndian.Uint64(valid[len(valid)-12:]))
	_, rowsLen := binary.Uvarint(valid[footerOff:])
	huge := append([]byte{}, valid[:footerOff]...)
	huge = binary.AppendUvarint(huge, 1<<40)
	huge = append(huge, valid[footerOff+int64(rowsLen):]...)
	return map[string][]byte{
		"valid":     valid,
		"truncated": valid[:len(valid)*2/3],
		"ragged":    writeFuzzFile(tb, 40, true),
		"rows-2e40": huge,
	}
}

// TestReadTableSeeds pins what ReadTable makes of each seed: the valid
// file loads whole, and every other is refused by the check meant for it.
func TestReadTableSeeds(t *testing.T) {
	wantErr := map[string]string{"truncated": "bad trailer magic", "ragged": "ragged block", "rows-2e40": "footer claims 1099511627776 rows"}
	for name, data := range hostileColfiles(t) {
		path := filepath.Join(t.TempDir(), name+".rvc")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		tbl, err := ReadTable(path)
		switch {
		case name == "valid" && (err != nil || tbl.NumRows() != 40):
			t.Errorf("valid: err %v; want 40 rows", err)
		case name != "valid" && (err == nil || !strings.Contains(err.Error(), wantErr[name])):
			t.Errorf("%s: err %v, want %q", name, err, wantErr[name])
		}
	}
}

// TestReadTableCorpusCommitted keeps testdata/fuzz/FuzzReadTable in step
// with hostileColfiles (RIVETER_GOLDEN=write regenerates it).
func TestReadTableCorpusCommitted(t *testing.T) {
	dir := filepath.Join("testdata", "fuzz", "FuzzReadTable")
	for name, data := range hostileColfiles(t) {
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

// readAllocBound is how many bytes ReadTable may allocate for a file of n
// bytes: every cell takes at least one byte of the file and at most 16 in
// each of the decoded block and the table's column, the file's bytes are
// read into one buffer, and the header's column list (at most 4096
// columns) is a bounded constant.
func readAllocBound(n int) uint64 { return 64*uint64(n) + 4<<20 }

// FuzzReadTable writes arbitrary bytes to a file and loads it with
// ReadTable, the loader under DB.LoadDir. It requires an error or a table
// with the footer's row count, never a panic, and no more allocation than
// readAllocBound of the file's size: a count the file claims is never
// trusted past what its bytes can hold. The seed corpus
// (testdata/fuzz/FuzzReadTable) is hostileColfiles.
func FuzzReadTable(f *testing.F) {
	f.Add(hostileColfiles(f)["valid"])
	path := filepath.Join(f.TempDir(), "fuzz.rvc")
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		tbl, err := ReadTable(path)
		runtime.ReadMemStats(&after)
		if got := after.TotalAlloc - before.TotalAlloc; got > readAllocBound(len(data)) {
			t.Fatalf("ReadTable of %d bytes allocated %d bytes, bound %d", len(data), got, readAllocBound(len(data)))
		}
		if err != nil {
			return
		}
		r, err := Open(path)
		if err != nil {
			t.Fatalf("ReadTable loaded a file Open refuses: %v", err)
		}
		defer r.Close()
		if tbl.NumRows() != r.meta.Rows {
			t.Fatalf("read %d rows, footer says %d", tbl.NumRows(), r.meta.Rows)
		}
	})
}
