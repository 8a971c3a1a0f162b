package tpch

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/riveterdb/riveter/internal/catalog"
	"github.com/riveterdb/riveter/internal/vector"
)

// column is a read-only view of every row of column j of tbl.
func column(tbl *catalog.Table, j int) *vector.Vector {
	view := vector.NewChunk([]vector.Type{tbl.Schema().Columns[j].Type})
	tbl.ScanView(view, 0, tbl.NumRows(), []int{j})
	return view.Col(0)
}

// tableDigest hashes every cell of a table column by column: the column's
// name and type, then each row as 8 little-endian bytes (int and date values,
// float bit patterns) or as the string's bytes and a 0 terminator, and one
// byte per row for its null bit. Equal digests mean byte-identical tables.
func tableDigest(tbl *catalog.Table) string {
	h := sha256.New()
	w := bufio.NewWriterSize(h, 1<<16)
	var b [8]byte
	for j, c := range tbl.Schema().Columns {
		fmt.Fprintf(w, "%s %v\x00", c.Name, c.Type)
		col := column(tbl, j)
		for i := 0; i < col.Len(); i++ {
			if col.IsNull(i) {
				w.WriteByte(1)
				continue
			}
			w.WriteByte(0)
			switch c.Type {
			case vector.TypeInt64, vector.TypeDate:
				binary.LittleEndian.PutUint64(b[:], uint64(col.Int64s()[i]))
				w.Write(b[:])
			case vector.TypeFloat64:
				binary.LittleEndian.PutUint64(b[:], math.Float64bits(col.Float64s()[i]))
				w.Write(b[:])
			case vector.TypeString:
				w.WriteString(col.Strings()[i])
				w.WriteByte(0)
			case vector.TypeBool:
				if col.Bools()[i] {
					w.WriteByte(1)
				} else {
					w.WriteByte(0)
				}
			}
		}
	}
	w.Flush()
	return hex.EncodeToString(h.Sum(nil))
}

// TestGeneratedTablesMatchRecordedDigests generates the database at SF 0.01
// and 0.1 and demands the table digests recorded in
// testdata/tables.sha256, so that no change to the generator or to the
// table it fills moves a byte of the data every recorded query result
// rests on. -update re-records the file from this build; do that only for
// a change that is meant to move the generated data.
func TestGeneratedTablesMatchRecordedDigests(t *testing.T) {
	path := filepath.Join("testdata", "tables.sha256")
	var sb strings.Builder
	for _, sf := range []float64{0.01, 0.1} {
		cat, err := Generate(Config{SF: sf})
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range cat.Names() {
			tbl, _ := cat.Table(name)
			fmt.Fprintf(&sb, "sf%g/%s %d %s\n", sf, name, tbl.NumRows(), tableDigest(tbl))
		}
	}
	got := sb.String()
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("generated tables differ from %s:\ngot:\n%swant:\n%s", path, got, want)
	}
}
