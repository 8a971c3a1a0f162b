package tpch

import (
	"bytes"
	"crypto/sha256"
	"testing"

	"github.com/riveterdb/riveter/internal/catalog"
	"github.com/riveterdb/riveter/internal/vector"
)

// columnDigests hashes the encoded bytes of every column of every table,
// keyed table.column.
func columnDigests(t *testing.T, cat *catalog.Catalog) map[string][32]byte {
	t.Helper()
	out := map[string][32]byte{}
	for _, name := range cat.Names() {
		tbl, err := cat.Table(name)
		if err != nil {
			t.Fatal(err)
		}
		for j, col := range tbl.Schema().Columns {
			var buf bytes.Buffer
			enc := vector.NewEncoder(&buf)
			enc.Vector(column(tbl, j))
			if err := enc.Err(); err != nil {
				t.Fatal(err)
			}
			out[name+"."+col.Name] = sha256.Sum256(buf.Bytes())
		}
	}
	return out
}

// TestQueriesLeaveCatalogUnchanged: scans hand operators views of the base
// tables (engine.Source), so no operator may write its input. The 22
// queries at 1, 2 and 4 workers must leave every catalog column as it was.
func TestQueriesLeaveCatalogUnchanged(t *testing.T) {
	cat := queryCatalog(t)
	before := columnDigests(t, cat)
	for _, workers := range []int{1, 2, 4} {
		for _, q := range All() {
			runQuery(t, cat, q, workers)
		}
		after := columnDigests(t, cat)
		for col, d := range before {
			if after[col] != d {
				t.Errorf("%d workers: the 22 queries changed column %s", workers, col)
			}
		}
	}
}
