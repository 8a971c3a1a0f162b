// Package alloctest pins allocation counts. A test measures the allocs/op
// of named operations with testing.AllocsPerRun — on one CPU, where the
// counts reproduce — and compares each against the count recorded for it
// in a testdata file, failing any that exceeds its record by more than
// Tolerance. Allocation counts are a property of the code, not of the
// machine, so unlike a timing they can be gated in every test run.
//
// AllocsPerRun counts every allocation in the process, so a test using
// Check must not run beside others: it must not call t.Parallel, and
// neither may the other tests of its package.
package alloctest

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// Tolerance is how far above its recorded count a measurement may land.
const Tolerance = 0.25

// samples is how many times each op is measured (each a warm-up run that
// fills the pools, then one counted run); the lowest count is kept. Under
// CPU contention the workers interleave differently and allocate more
// local state, never less, so the minimum is the count of the code.
const samples = 3

// Op is one measured operation.
type Op struct {
	Name string
	Run  func()
}

// Check measures every op and compares it against the counts recorded in
// path. With update it re-records path from this build instead; do that
// only for a change meant to move allocation counts, and say by how much.
func Check(t *testing.T, path string, update bool, ops []Op) {
	t.Helper()
	if raceEnabled {
		t.Skip("allocation counts are not the code's under the race detector")
	}
	got := make([]float64, len(ops))
	for i, op := range ops {
		got[i] = testing.AllocsPerRun(1, op.Run)
		for n := 1; n < samples; n++ {
			got[i] = min(got[i], testing.AllocsPerRun(1, op.Run))
		}
	}
	if update {
		var sb strings.Builder
		for i, op := range ops {
			fmt.Fprintf(&sb, "%s %.0f\n", op.Name, got[i])
		}
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(sb.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := read(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(want) != len(ops) {
		t.Errorf("%s records %d operations, the test measures %d (re-record with -update)", path, len(want), len(ops))
	}
	for i, op := range ops {
		rec, ok := want[op.Name]
		if !ok {
			t.Errorf("%s: no count recorded in %s (re-record with -update)", op.Name, path)
			continue
		}
		if ceiling := rec * (1 + Tolerance); got[i] > ceiling {
			t.Errorf("%s: %.0f allocs/op, recorded %.0f (ceiling %.0f at +%.0f%%)", op.Name, got[i], rec, ceiling, Tolerance*100)
		} else {
			t.Logf("%s: %.0f allocs/op, recorded %.0f", op.Name, got[i], rec)
		}
	}
}

// read parses a file of "<name> <allocs/op>" lines.
func read(path string) (map[string]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string]float64{}
	for sc := bufio.NewScanner(f); sc.Scan(); {
		name, count, ok := strings.Cut(sc.Text(), " ")
		if !ok {
			continue
		}
		n, err := strconv.ParseFloat(count, 64)
		if err != nil {
			return nil, fmt.Errorf("%s: %s: %v", path, name, err)
		}
		out[name] = n
	}
	return out, nil
}
