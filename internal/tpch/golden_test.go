package tpch

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/riveterdb/riveter/internal/vector"
)

var update = flag.Bool("update", false, "re-record testdata/results_sf001.sha256 from this build")

const goldenResults = "results_sf001.sha256"

// resultDigest hashes a query's serialized result buffer: equal digests mean
// the same values, the same float bit patterns and the same null bitmaps.
func resultDigest(t *testing.T, q Query, workers int) string {
	t.Helper()
	h := sha256.New()
	enc := vector.NewEncoder(h)
	runQuery(t, queryCatalog(t), q, workers).Buf.Save(enc)
	if err := enc.Err(); err != nil {
		t.Fatalf("%s: encode: %v", q.Name, err)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestQueriesMatchRecordedResults runs all 22 TPC-H queries at SF 0.01 on one
// worker and demands the result bytes recorded in testdata. The digests were
// recorded from the interpreted operators (tree-walking expressions, the
// map-based aggregate) at the last commit that had them, so they are the
// verdict of an implementation that shares no code with the compiled
// programs and the flat aggregate table that produce them now. -update
// re-records from this build; do that only for a change that is meant to
// move result bytes.
func TestQueriesMatchRecordedResults(t *testing.T) {
	path := filepath.Join("testdata", goldenResults)
	if *update {
		var sb strings.Builder
		for _, q := range All() {
			fmt.Fprintf(&sb, "%s %s\n", q.Name, resultDigest(t, q, 1))
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(sb.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	want := map[string]string{}
	for sc := bufio.NewScanner(f); sc.Scan(); {
		if name, digest, ok := strings.Cut(sc.Text(), " "); ok {
			want[name] = digest
		}
	}
	if len(want) != len(All()) {
		t.Fatalf("%s lists %d queries, want %d", path, len(want), len(All()))
	}
	for _, q := range All() {
		if got := resultDigest(t, q, 1); got != want[q.Name] {
			t.Errorf("%s: result digest %s, recorded %s", q.Name, got, want[q.Name])
		}
	}
}
