package strategy

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/riveterdb/riveter/internal/engine"
)

// framedLineage frames records after the file header the way the writer
// does; each record is a type byte followed by its payload.
func framedLineage(records ...[]byte) []byte {
	l := &LineageLog{pending: append([]byte(lineageMagic), lineageVersion)}
	for _, r := range records {
		l.appendRecordLocked(r[0], r[1:])
	}
	return l.pending
}

func record(typ byte, payload string) []byte { return append([]byte{typ}, payload...) }

// hostileLineageLogs is FuzzScanLineage's seed corpus: the committed
// parent log, one this writer wrote, one in the shape older binaries wrote
// (morsel records and all), and the damaged or foreign shapes the scanner
// must refuse or truncate.
func hostileLineageLogs(t testing.TB) map[string][]byte {
	t.Helper()
	parent, err := os.ReadFile(filepath.Join("..", "..", "testdata", "parent", "q3.rvlg"))
	if err != nil {
		t.Fatal(err)
	}
	scan, err := scanLineage(parent, "parent")
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "fresh.rvlg")
	lin, err := CreateLineageLog(path, "Q3", 0x8199efd5e47d5c09, 2, LineageOptions{})
	if err != nil {
		t.Fatal(err)
	}
	lin.mu.Lock()
	lin.appendRecordLocked(recLineageState, scan.LastState)
	lin.states++
	lin.mu.Unlock()
	if _, err := lin.Seal(nil); err != nil {
		t.Fatal(err)
	}
	lin.Close()
	fresh, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	_, meta, metaEnd, _ := readLineageRecord(fresh, int64(len(lineageMagic)+1))
	older := [][]byte{append([]byte{recLineageMeta}, meta...)}
	for m := 0; m < 9; m++ {
		older = append(older, record(recLineageMorsel, fmt.Sprintf("%012d", m)))
	}
	older = append(older, append([]byte{recLineageState}, scan.LastState...), record(recLineageSeal, `{"elapsed_ns":1,"records":11}`))
	return map[string][]byte{
		"parent-q3":          parent,
		"fresh":              fresh,
		"older-with-morsels": framedLineage(older...),
		"torn-tail":          append(append([]byte(nil), fresh...), recLineageState, 0xff, 0xff),
		"store-backed-meta": framedLineage(
			record(recLineageMeta, `{"query":"Q3","plan_fingerprint":"8199efd5e47d5c09","workers":2,"seal_every":1,"state_version":2,"store_key":"lineage-Q3-8199efd5e47d5c09"}`),
			record(recLineageState, `{"key":"lineage-Q3-8199efd5e47d5c09-s0","state_bytes":3299,"seq":0}`),
			record(recLineageSeal, `{"elapsed_ns":1,"records":2}`)),
		"bad-magic":          append([]byte("RVLX"), fresh[len(lineageMagic):]...),
		"implausible-length": append(append([]byte(nil), fresh[:metaEnd]...), recLineageState, 0xff, 0xff, 0xff, 0x7f, 1, 2, 3),
	}
}

// TestHostileLineageLogs runs the fuzz corpus as a plain test and pins
// what each entry must scan to.
func TestHostileLineageLogs(t *testing.T) {
	logs := hostileLineageLogs(t)
	for _, name := range []string{"parent-q3", "fresh", "older-with-morsels", "torn-tail", "implausible-length"} {
		if _, err := scanLineage(logs[name], name); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
	parent, _ := scanLineage(logs["parent-q3"], "parent")
	if parent.Records != 3 || parent.States != 1 || parent.Seals != 1 || parent.Torn() {
		t.Errorf("parent log scanned to %d records, %d states, %d seals, torn %v; want 3, 1, 1, clean", parent.Records, parent.States, parent.Seals, parent.Torn())
	}
	older, _ := scanLineage(logs["older-with-morsels"], "older")
	if older.Records != 12 || older.States != 1 || older.Seals != 1 || older.Torn() || !bytes.Equal(older.LastState, parent.LastState) {
		t.Errorf("older log scanned to %d records, %d states, %d seals, torn %v; want 12, 1, 1, clean", older.Records, older.States, older.Seals, older.Torn())
	}
	fresh, _ := scanLineage(logs["fresh"], "fresh")
	if fresh.Records != 3 || fresh.States != 1 || fresh.Seals != 1 || !bytes.Equal(fresh.LastState, parent.LastState) {
		t.Errorf("fresh log scanned to %+v", fresh)
	}
	if s, _ := scanLineage(logs["torn-tail"], "torn"); s.TornOffset != int64(len(logs["fresh"])) {
		t.Errorf("torn tail truncated at %d, want %d", s.TornOffset, len(logs["fresh"]))
	}
	if s, _ := scanLineage(logs["implausible-length"], "implausible"); s.TornErr != "record length implausible" || s.States != 0 {
		t.Errorf("implausible length scanned to %+v", s)
	}
	if _, err := scanLineage(logs["bad-magic"], "bad"); err == nil || !strings.Contains(err.Error(), "bad magic") {
		t.Errorf("bad magic: %v", err)
	}
	if _, err := scanLineage(logs["store-backed-meta"], "store"); err == nil || !strings.Contains(err.Error(), "store_key") {
		t.Errorf("store-backed meta: %v, want a refusal naming store_key", err)
	}
}

// TestStoreBackedLineageRefused: Verify and Restore of a lineage point whose
// meta names a store key fail with an error that says so.
func TestStoreBackedLineageRefused(t *testing.T) {
	cat, node, _ := lineageFixture(t)
	dir := t.TempDir()
	path := filepath.Join(dir, "store.rvlg")
	if err := os.WriteFile(path, hostileLineageLogs(t)["store-backed-meta"], 0o644); err != nil {
		t.Fatal(err)
	}
	rp := ResumePoint{Target: TargetLineage, Ref: path}
	if _, err := (Seam{}).Verify(rp); err == nil || !strings.Contains(err.Error(), "store_key") {
		t.Errorf("Verify: %v, want a refusal naming store_key", err)
	}
	pp, err := engine.CompileWith(node, cat, engine.CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	fresh := filepath.Join(dir, "resumed.rvlg")
	if _, _, err := (Seam{}).Restore(pp, "Q3", rp, LineageConfig{Path: fresh}, engine.Options{Workers: 2}); err == nil || !strings.Contains(err.Error(), "store_key") {
		t.Errorf("Restore: %v, want a refusal naming store_key", err)
	}
	if _, err := os.Stat(fresh); !os.IsNotExist(err) {
		t.Errorf("the refused restore left its fresh log behind (%v)", err)
	}
}

// TestScanLineageCorpusCommitted keeps testdata/fuzz/FuzzScanLineage in
// step with hostileLineageLogs (RIVETER_GOLDEN=write regenerates it).
func TestScanLineageCorpusCommitted(t *testing.T) {
	dir := filepath.Join("testdata", "fuzz", "FuzzScanLineage")
	for name, data := range hostileLineageLogs(t) {
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

// FuzzScanLineage feeds arbitrary bytes to the lineage-log scanner — the
// function under Verify and every lineage restore — and requires an error
// or a scan consistent with its input: never a panic, a valid prefix past
// the input's end, a torn offset off the valid prefix, or a state whose
// size disagrees with its bytes. The seed corpus
// (testdata/fuzz/FuzzScanLineage) is hostileLineageLogs.
func FuzzScanLineage(f *testing.F) {
	f.Add(hostileLineageLogs(f)["fresh"])
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := scanLineage(data, "fuzz")
		if err != nil {
			return
		}
		if s.ValidBytes > int64(len(data)) {
			t.Fatalf("valid prefix %d past the %d-byte input", s.ValidBytes, len(data))
		}
		if s.TornOffset != -1 && s.TornOffset != s.ValidBytes {
			t.Fatalf("torn at %d, valid prefix ends at %d", s.TornOffset, s.ValidBytes)
		}
		if s.StateBytes != int64(len(s.LastState)) {
			t.Fatalf("state bytes %d, last state holds %d", s.StateBytes, len(s.LastState))
		}
	})
}
