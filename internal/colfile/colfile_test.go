package colfile

import (
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"github.com/riveterdb/riveter/internal/catalog"
	"github.com/riveterdb/riveter/internal/vector"
)

func buildTestTable(t *testing.T, rows int) *catalog.Table {
	t.Helper()
	schema := catalog.NewSchema(
		catalog.Col("k", vector.TypeInt64),
		catalog.Col("price", vector.TypeFloat64),
		catalog.Col("status", vector.TypeString),  // low cardinality -> dictionary
		catalog.Col("comment", vector.TypeString), // high cardinality -> raw
		catalog.Col("d", vector.TypeDate),
		catalog.Col("flag", vector.TypeBool),
	)
	tbl := catalog.NewTable("test_table", schema)
	rng := rand.New(rand.NewSource(3))
	statuses := []string{"OPEN", "CLOSED", "PENDING"}
	for i := 0; i < rows; i++ {
		var comment vector.Value
		if i%97 == 0 {
			comment = vector.NewNull(vector.TypeString)
		} else {
			b := make([]byte, 10+rng.Intn(30))
			for j := range b {
				b[j] = byte('a' + rng.Intn(26))
			}
			comment = vector.NewString(string(b))
		}
		err := tbl.AppendRow(
			vector.NewInt64(int64(i)),
			vector.NewFloat64(rng.Float64()*1000),
			vector.NewString(statuses[i%3]),
			comment,
			vector.NewDate(int64(8000+i%3000)),
			vector.NewBool(i%2 == 0),
		)
		if err != nil {
			t.Fatal(err)
		}
	}
	return tbl
}

func tablesEqual(t *testing.T, a, b *catalog.Table) {
	t.Helper()
	if a.NumRows() != b.NumRows() {
		t.Fatalf("row counts %d vs %d", a.NumRows(), b.NumRows())
	}
	if a.Schema().String() != b.Schema().String() {
		t.Fatalf("schemas differ: %s vs %s", a.Schema(), b.Schema())
	}
	for i := int64(0); i < a.NumRows(); i++ {
		for j := 0; j < a.Schema().Arity(); j++ {
			av, bv := a.Value(i, j), b.Value(i, j)
			if av.Null != bv.Null || (!av.Null && !av.Equal(bv)) {
				t.Fatalf("row %d col %d: %v vs %v", i, j, av, bv)
			}
		}
	}
}

func TestRoundTripSmall(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "t.rvc")
	tbl := buildTestTable(t, 500)
	if err := WriteTable(path, tbl); err != nil {
		t.Fatal(err)
	}
	got, err := ReadTable(path)
	if err != nil {
		t.Fatal(err)
	}
	tablesEqual(t, tbl, got)
}

func TestRoundTripMultiBlock(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "t.rvc")
	tbl := buildTestTable(t, BlockRows*2+137) // 3 blocks, last partial
	if err := WriteTable(path, tbl); err != nil {
		t.Fatal(err)
	}
	r, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	meta := r.meta
	if meta.Blocks != 3 {
		t.Errorf("blocks = %d, want 3", meta.Blocks)
	}
	if meta.Rows != tbl.NumRows() {
		t.Errorf("rows = %d", meta.Rows)
	}
	if meta.TableName != "test_table" {
		t.Errorf("name = %q", meta.TableName)
	}
	// Random block access.
	cols, err := r.ReadBlock(1)
	if err != nil {
		t.Fatal(err)
	}
	if cols[0].Len() != BlockRows {
		t.Errorf("block 1 rows = %d", cols[0].Len())
	}
	if cols[0].Int64s()[0] != int64(BlockRows) {
		t.Errorf("block 1 first key = %d", cols[0].Int64s()[0])
	}
	if _, err := r.ReadBlock(5); err == nil {
		t.Error("out-of-range block must fail")
	}
	r.Close()

	got, err := ReadTable(path)
	if err != nil {
		t.Fatal(err)
	}
	tablesEqual(t, tbl, got)
}

func TestEmptyTable(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "empty.rvc")
	schema := catalog.NewSchema(catalog.Col("x", vector.TypeInt64))
	tbl := catalog.NewTable("empty", schema)
	if err := WriteTable(path, tbl); err != nil {
		t.Fatal(err)
	}
	got, err := ReadTable(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumRows() != 0 {
		t.Errorf("rows = %d", got.NumRows())
	}
}

func TestStreamingWriter(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "s.rvc")
	schema := catalog.NewSchema(catalog.Col("x", vector.TypeInt64), catalog.Col("s", vector.TypeString))
	w, err := NewWriter(path, "s", schema)
	if err != nil {
		t.Fatal(err)
	}
	chunk := vector.NewChunk(schema.Types())
	total := 0
	for b := 0; b < 40; b++ {
		chunk.Reset()
		for i := 0; i < 1999; i++ {
			chunk.AppendRowValues(vector.NewInt64(int64(total)), vector.NewString("const"))
			total++
		}
		if err := w.WriteChunk(chunk); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Error("double close must be a no-op")
	}
	got, err := ReadTable(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumRows() != int64(total) {
		t.Fatalf("rows = %d, want %d", got.NumRows(), total)
	}
	for i := int64(0); i < got.NumRows(); i += 997 {
		if got.Value(i, 0).I != i {
			t.Fatalf("row %d key = %v", i, got.Value(i, 0))
		}
	}
}

func TestCorruptionDetected(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "c.rvc")
	tbl := buildTestTable(t, 1000)
	if err := WriteTable(path, tbl); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a byte in the middle of the data area.
	data[len(data)/2] ^= 0xFF
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadTable(path); err == nil {
		t.Error("corrupted file must fail to read")
	}
}

func TestBadMagicRejected(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "bad.rvc")
	if err := os.WriteFile(path, []byte("NOPEnotacolfile-at-all-really"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(path); err == nil {
		t.Error("bad magic must be rejected")
	}
	if _, err := Open(filepath.Join(dir, "missing.rvc")); err == nil {
		t.Error("missing file must fail")
	}
}

func TestDictionaryActuallyUsed(t *testing.T) {
	// A highly repetitive string column should compress well below raw size.
	dir := t.TempDir()
	schema := catalog.NewSchema(catalog.Col("s", vector.TypeString))
	tbl := catalog.NewTable("dict", schema)
	longVal := make([]byte, 100)
	for i := range longVal {
		longVal[i] = 'z'
	}
	for i := 0; i < 10000; i++ {
		_ = tbl.AppendRow(vector.NewString(string(longVal)))
	}
	path := filepath.Join(dir, "dict.rvc")
	if err := WriteTable(path, tbl); err != nil {
		t.Fatal(err)
	}
	st, _ := os.Stat(path)
	rawSize := int64(10000 * 100)
	if st.Size() > rawSize/10 {
		t.Errorf("dictionary encoding ineffective: file %d bytes vs raw %d", st.Size(), rawSize)
	}
	got, err := ReadTable(path)
	if err != nil {
		t.Fatal(err)
	}
	tablesEqual(t, tbl, got)
}
