package catalog

import (
	"strings"
	"sync"
	"testing"

	"github.com/riveterdb/riveter/internal/vector"
)

func testSchema() *Schema {
	return NewSchema(
		Col("id", vector.TypeInt64),
		Col("name", vector.TypeString),
		Col("score", vector.TypeFloat64),
	)
}

func TestSchemaBasics(t *testing.T) {
	s := testSchema()
	if s.Arity() != 3 {
		t.Fatalf("arity = %d", s.Arity())
	}
	if s.IndexOf("name") != 1 || s.IndexOf("missing") != -1 {
		t.Error("IndexOf wrong")
	}
	ts := s.Types()
	if ts[0] != vector.TypeInt64 || ts[2] != vector.TypeFloat64 {
		t.Error("Types wrong")
	}
	p := s.Project([]int{2, 0})
	if p.Columns[0].Name != "score" || p.Columns[1].Name != "id" {
		t.Error("Project wrong")
	}
	if s.String() == "" {
		t.Error("String empty")
	}
	names := s.Names()
	if len(names) != 3 || names[1] != "name" {
		t.Error("Names wrong")
	}
}

func TestTableAppendAndScan(t *testing.T) {
	tbl := NewTable("t", testSchema())
	for i := 0; i < 100; i++ {
		err := tbl.AppendRow(
			vector.NewInt64(int64(i)),
			vector.NewString("n"),
			vector.NewFloat64(float64(i)*0.5),
		)
		if err != nil {
			t.Fatal(err)
		}
	}
	if tbl.NumRows() != 100 {
		t.Fatalf("rows = %d", tbl.NumRows())
	}

	dst := vector.NewViewChunk([]vector.Type{vector.TypeFloat64, vector.TypeInt64})
	n := tbl.ScanView(dst, 64, 64, []int{2, 0})
	if n != 36 || dst.Len() != 36 {
		t.Fatalf("scan returned %d rows", n)
	}
	if dst.Col(1).Int64s()[0] != 64 || dst.Col(0).Float64s()[35] != 99*0.5 {
		t.Error("scan values wrong")
	}
	if got := tbl.ScanView(dst, 128, 10, []int{0}); got != 0 {
		t.Errorf("scan past end = %d", got)
	}
}

// TestTableMemBytesFollowsAppends: MemBytes is cached between appends and
// must never be stale after one.
func TestTableMemBytesFollowsAppends(t *testing.T) {
	tbl := NewTable("t", testSchema())
	uncached := func() int64 {
		var b int64
		for i := 0; i < tbl.Schema().Arity(); i++ {
			b += tbl.cols[i].MemBytes()
		}
		return b
	}
	check := func(when string) {
		t.Helper()
		for i := 0; i < 2; i++ { // the computing call and the cached one
			if got, want := tbl.MemBytes(), uncached(); got != want {
				t.Fatalf("%s: MemBytes = %d, columns hold %d", when, got, want)
			}
		}
	}
	check("empty")
	if err := tbl.AppendRow(vector.NewInt64(1), vector.NewString("a long enough string"), vector.NewFloat64(1)); err != nil {
		t.Fatal(err)
	}
	check("after AppendRow")
	for i := 0; i < 100; i++ {
		if err := tbl.AppendRow(vector.NewInt64(int64(i)), vector.NewString("another string"), vector.NewFloat64(2)); err != nil {
			t.Fatal(err)
		}
	}
	check("after 100 more")
	if err := tbl.AppendRow(vector.NewInt64(1)); err == nil {
		t.Error("row arity mismatch must fail")
	}
	check("after a refused row")
}

func TestCatalogCRUD(t *testing.T) {
	c := New()
	_, err := c.Create("orders", testSchema())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Create("orders", testSchema()); err == nil {
		t.Error("duplicate create must fail")
	}
	tbl, err := c.Table("orders")
	if err != nil || tbl.Name() != "orders" {
		t.Fatalf("lookup: %v", err)
	}
	if _, err := c.Table("nope"); err == nil {
		t.Error("missing table lookup must fail")
	}
	other := NewTable("lineitem", testSchema())
	if err := c.Add(other); err != nil {
		t.Fatal(err)
	}
	if err := c.Add(other); err == nil {
		t.Error("duplicate add must fail")
	}
	names := c.Names()
	if len(names) != 2 || names[0] != "lineitem" || names[1] != "orders" {
		t.Errorf("names = %v", names)
	}
	if c.MemBytes() < 0 {
		t.Error("membytes negative")
	}
}

// TestChunkBytesFollowsAppendsAndRaces: ChunkBytes is the MemBytes of the
// view ScanView gives of a column's chunk, whichever of several goroutines
// computes a column's sizes first, and it follows appends.
func TestChunkBytesFollowsAppendsAndRaces(t *testing.T) {
	tbl := NewTable("t", testSchema())
	check := func(when string) {
		t.Helper()
		chunks := (tbl.NumRows() + vector.ChunkCapacity - 1) / vector.ChunkCapacity
		want := make([][]int64, tbl.Schema().Arity())
		dst := vector.NewViewChunk(tbl.Schema().Types())
		for c := int64(0); c < chunks; c++ {
			tbl.ScanView(dst, c*vector.ChunkCapacity, vector.ChunkCapacity, []int{0, 1, 2})
			for j := range want {
				want[j] = append(want[j], dst.Col(j).MemBytes())
			}
		}
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for j := range want {
					for c, b := range want[j] {
						if got := tbl.ChunkBytes(j, int64(c)); got != b {
							t.Errorf("%s: column %d chunk %d: ChunkBytes = %d, view holds %d", when, j, c, got, b)
						}
					}
				}
			}()
		}
		wg.Wait()
	}
	for i := 0; i < 2*vector.ChunkCapacity+5; i++ {
		if err := tbl.AppendRow(vector.NewInt64(int64(i)), vector.NewString(strings.Repeat("s", i%7)), vector.NewFloat64(1)); err != nil {
			t.Fatal(err)
		}
	}
	check("three chunks")
	if err := tbl.AppendRow(vector.NewInt64(1), vector.NewNull(vector.TypeString), vector.NewFloat64(2)); err != nil {
		t.Fatal(err)
	}
	check("after one more row")
}
