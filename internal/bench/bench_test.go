package bench

import (
	"bytes"
	"strings"
	"testing"
)

// quickSuite builds a suite small enough for unit tests: two tiny scale
// factors, a query subset, one run.
func quickSuite(t testing.TB) (*Suite, *bytes.Buffer) {
	t.Helper()
	var out bytes.Buffer
	s, err := NewSuite(Config{
		SFs:           []float64{0.002, 0.005},
		Workers:       2,
		Runs:          1,
		Queries:       []int{1, 3, 6},
		CheckpointDir: t.TempDir(),
		Seed:          1,
		Out:           &out,
		Quiet:         true,
	})
	if err != nil {
		t.Fatal(err)
	}
	return s, &out
}

func TestBoxStats(t *testing.T) {
	b := boxStats([]float64{4, 1, 3, 2, 5})
	if b[0] != 1 || b[2] != 3 || b[4] != 5 {
		t.Errorf("box = %v", b)
	}
	if b[1] != 2 || b[3] != 4 {
		t.Errorf("quartiles = %v", b)
	}
	z := boxStats(nil)
	if z != [5]float64{} {
		t.Error("empty box stats must be zero")
	}
	one := boxStats([]float64{7})
	if one[0] != 7 || one[4] != 7 {
		t.Error("single-sample box stats")
	}
}

func TestHumanUnits(t *testing.T) {
	cases := map[int64]string{
		512:     "512B",
		2048:    "2.00KB",
		3 << 20: "3.00MB",
		5 << 30: "5.00GB",
	}
	for in, want := range cases {
		if got := humanBytes(in); got != want {
			t.Errorf("humanBytes(%d) = %q, want %q", in, got, want)
		}
	}
}

func TestTableRendering(t *testing.T) {
	tbl := &Table{Title: "T", Header: []string{"a", "bb"}, Notes: []string{"note1"}}
	tbl.AddRow("1", "2")
	tbl.AddRow("333", "4")
	var buf bytes.Buffer
	tbl.Fprint(&buf)
	out := buf.String()
	for _, want := range []string{"== T ==", "a", "bb", "333", "note: note1"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered table missing %q:\n%s", want, out)
		}
	}
}

func TestSuiteDefaults(t *testing.T) {
	s, err := NewSuite(Config{Quiet: true, CheckpointDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	cfg := s.cfg
	if len(cfg.SFs) != 3 || cfg.Workers <= 0 || cfg.Runs <= 0 {
		t.Errorf("defaults not applied: %+v", cfg)
	}
	if len(s.queryIDs()) != 22 {
		t.Error("default query set must be all 22")
	}
	if _, err := s.Run("nope"); err == nil {
		t.Error("unknown experiment must error")
	}
}

func TestExperimentsList(t *testing.T) {
	ids := Experiments()
	if len(ids) != 11 {
		t.Fatalf("experiments = %v", ids)
	}
	want := map[string]bool{"table2": true, "fig6": true, "fig10": true, "fig12": true, "table5": true}
	for _, id := range ids {
		delete(want, id)
	}
	if len(want) != 0 {
		t.Errorf("missing experiments: %v", want)
	}
}

func TestTable2(t *testing.T) {
	s, _ := quickSuite(t)
	ts, err := s.Table2()
	if err != nil {
		t.Fatal(err)
	}
	if len(ts) != 1 || len(ts[0].Rows) != 4 {
		t.Fatalf("table2 = %+v", ts)
	}
	if ts[0].Rows[0][0] != "Q1" || !strings.Contains(ts[0].Rows[0][1], "groupby") {
		t.Errorf("Q1 row = %v", ts[0].Rows[0])
	}
	if !strings.Contains(ts[0].Rows[3][1], "join") {
		t.Errorf("Q21 row = %v", ts[0].Rows[3])
	}
}

func TestFig6AndFig8Sizes(t *testing.T) {
	s, _ := quickSuite(t)
	ts, err := s.Fig6()
	if err != nil {
		t.Fatal(err)
	}
	if len(ts[0].Rows) != 3 { // queries 1, 3, 6
		t.Fatalf("fig6 rows = %d", len(ts[0].Rows))
	}
	for _, row := range ts[0].Rows {
		if len(row) != 3 { // query + 2 SFs
			t.Errorf("row = %v", row)
		}
	}
	ts8, err := s.Fig8()
	if err != nil {
		t.Fatal(err)
	}
	if len(ts8[0].Rows) != 3 {
		t.Fatalf("fig8 rows = %d", len(ts8[0].Rows))
	}
}

func TestFig7Fig9(t *testing.T) {
	s, _ := quickSuite(t)
	ts, err := s.Fig7()
	if err != nil {
		t.Fatal(err)
	}
	if len(ts[0].Rows) != 4 { // highlight queries
		t.Fatalf("fig7 rows = %d", len(ts[0].Rows))
	}
	ts9, err := s.Fig9()
	if err != nil {
		t.Fatal(err)
	}
	if len(ts9[0].Rows) != 4 {
		t.Fatalf("fig9 rows = %d", len(ts9[0].Rows))
	}
}

func TestTable4Estimators(t *testing.T) {
	s, _ := quickSuite(t)
	ts, err := s.Table4()
	if err != nil {
		t.Fatal(err)
	}
	if len(ts[0].Rows) != 8 { // 4 queries x 2 SFs
		t.Fatalf("table4 rows = %d", len(ts[0].Rows))
	}
	// One-SF config must be rejected.
	s1, err := NewSuite(Config{SFs: []float64{0.002}, Quiet: true, CheckpointDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s1.Table4(); err == nil {
		t.Error("table4 with one SF must error")
	}
}

func TestRunAllSmallExperiment(t *testing.T) {
	s, out := quickSuite(t)
	if _, err := s.Run("table2"); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "Table II") {
		t.Error("output missing Table II")
	}
}

func TestFig10Fig11Smoke(t *testing.T) {
	if testing.Short() {
		t.Skip("scenario experiments are slow")
	}
	var out bytes.Buffer
	s, err := NewSuite(Config{
		SFs:           []float64{0.005},
		Workers:       2,
		Runs:          1,
		Queries:       []int{3, 6},
		CheckpointDir: t.TempDir(),
		Out:           &out,
		Quiet:         true,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts, err := s.Fig10()
	if err != nil {
		t.Fatal(err)
	}
	if len(ts[0].Rows) != 12 { // 4 windows x 3 strategies
		t.Fatalf("fig10 rows = %d", len(ts[0].Rows))
	}
	ts11, err := s.Fig11()
	if err != nil {
		t.Fatal(err)
	}
	if len(ts11[0].Rows) != 4 {
		t.Fatalf("fig11 rows = %d", len(ts11[0].Rows))
	}
}

func TestTable3Table5Fig12Smoke(t *testing.T) {
	if testing.Short() {
		t.Skip("scenario experiments are slow")
	}
	var out bytes.Buffer
	s, err := NewSuite(Config{
		SFs:           []float64{0.005, 0.01},
		Workers:       2,
		Runs:          1,
		CheckpointDir: t.TempDir(),
		Out:           &out,
		Quiet:         true,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts3, err := s.Table3()
	if err != nil {
		t.Fatal(err)
	}
	if len(ts3[0].Rows) != 4 {
		t.Fatalf("table3 rows = %d", len(ts3[0].Rows))
	}
	ts5, err := s.Table5()
	if err != nil {
		t.Fatal(err)
	}
	if len(ts5[0].Rows) != 4 {
		t.Fatalf("table5 rows = %d", len(ts5[0].Rows))
	}
	ts12, err := s.Fig12()
	if err != nil {
		t.Fatal(err)
	}
	if len(ts12[0].Rows) != 2 { // 2 estimators x 1 run
		t.Fatalf("fig12 rows = %d", len(ts12[0].Rows))
	}
}
