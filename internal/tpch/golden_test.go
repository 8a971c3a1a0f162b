package tpch

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"github.com/riveterdb/riveter/internal/engine"
	"github.com/riveterdb/riveter/internal/plan"
	"github.com/riveterdb/riveter/internal/vector"
)

var update = flag.Bool("update", false, "re-record the testdata files of the tests that run (result, table and allocation records) from this build")

const goldenResults = "results_sf001.sha256"

// resultDigest hashes a query's serialized result buffer: equal digests mean
// the same values, the same float bit patterns and the same null bitmaps.
func resultDigest(t *testing.T, q Query, workers int) string {
	t.Helper()
	return digestOf(t, q, runQuery(t, queryCatalog(t), q, workers))
}

func digestOf(t *testing.T, q Query, res *engine.ResultSet) string {
	t.Helper()
	h := sha256.New()
	enc := vector.NewEncoder(h)
	res.Buf.Save(enc)
	if err := enc.Err(); err != nil {
		t.Fatalf("%s: encode: %v", q.Name, err)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// recordedDigests reads the recorded result digest of every query.
func recordedDigests(t *testing.T) map[string]string {
	t.Helper()
	path := filepath.Join("testdata", goldenResults)
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
	return want
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
	want := recordedDigests(t)
	for _, q := range All() {
		if got := resultDigest(t, q, 1); got != want[q.Name] {
			t.Errorf("%s: result digest %s, recorded %s", q.Name, got, want[q.Name])
		}
	}
}

// TestCompiledPlanRunsOnManyExecutors: a compiled plan is a value and the
// run state is each executor's own. Each of the 22 plans, compiled once,
// runs on two executors at once at one worker and then on a third, and
// every run returns the recorded result bytes; two executors at once at
// three workers return the same rows.
func TestCompiledPlanRunsOnManyExecutors(t *testing.T) {
	cat := queryCatalog(t)
	want := recordedDigests(t)
	for _, q := range All() {
		pp, err := engine.CompileWith(q.Build(plan.NewBuilder(cat), testSF), cat, engine.CompileOptions{})
		if err != nil {
			t.Fatalf("%s: compile: %v", q.Name, err)
		}
		results := append(runTogether(t, q, pp, 1, 2), runTogether(t, q, pp, 1, 1)...)
		for i, res := range results {
			if got := digestOf(t, q, res); got != want[q.Name] {
				t.Errorf("%s: run %d: result digest %s, recorded %s", q.Name, i, got, want[q.Name])
			}
		}
		for i, res := range runTogether(t, q, pp, 3, 2) {
			if res.SortedKey() != results[0].SortedKey() {
				t.Errorf("%s: run %d at three workers: rows differ from one worker's", q.Name, i)
			}
		}
	}
}

// runTogether runs pp on n executors of the given workers at once.
func runTogether(t *testing.T, q Query, pp *engine.PhysicalPlan, workers, n int) []*engine.ResultSet {
	t.Helper()
	res := make([]*engine.ResultSet, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := range res {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res[i], errs[i] = engine.NewExecutor(pp, engine.Options{Workers: workers}).Run(context.Background())
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("%s: executor %d of %d: %v", q.Name, i, n, err)
		}
	}
	return res
}

// TestRunStateStaysApart: on one plan, executor A suspends at process
// level mid-scan while executor B runs to the end, and B returns the
// recorded result bytes; A's image then resumes on a third executor of the
// same plan and returns them too.
func TestRunStateStaysApart(t *testing.T) {
	cat := queryCatalog(t)
	want := recordedDigests(t)
	for _, id := range []int{3, 13, 18, 21} {
		q := mustGet(t, id)
		pp, err := engine.CompileWith(q.Build(plan.NewBuilder(cat), testSF), cat, engine.CompileOptions{})
		if err != nil {
			t.Fatal(err)
		}
		clean := engine.NewAccountant()
		if _, err := engine.NewExecutor(pp, engine.Options{Workers: 1, Accountant: clean}).Run(context.Background()); err != nil {
			t.Fatal(err)
		}
		a := engine.NewExecutor(pp, engine.Options{Workers: 1})
		a.SuspendWhen(engine.KindProcess, clean.ProcessedBytes()/2)
		b := engine.NewExecutor(pp, engine.Options{Workers: 1})
		ranA := make(chan error, 1)
		go func() {
			_, err := a.Run(context.Background())
			ranA <- err
		}()
		res, err := b.Run(context.Background())
		errA := <-ranA
		if err != nil {
			t.Fatalf("%s: B: %v", q.Name, err)
		}
		if got := digestOf(t, q, res); got != want[q.Name] {
			t.Errorf("%s: B's result digest %s, recorded %s", q.Name, got, want[q.Name])
		}
		if !errors.Is(errA, engine.ErrSuspended) || len(a.Suspended().InFlight) == 0 {
			t.Fatalf("%s: A: Run = %v, want a process-level suspension mid-scan", q.Name, errA)
		}
		var image bytes.Buffer
		if err := a.SaveState(vector.NewEncoder(&image)); err != nil {
			t.Fatal(err)
		}
		c := engine.NewExecutor(pp, engine.Options{Workers: 1})
		if err := c.LoadState(vector.NewDecoder(&image)); err != nil {
			t.Fatalf("%s: load A's image: %v", q.Name, err)
		}
		res, err = c.Run(context.Background())
		if err != nil {
			t.Fatalf("%s: resume A's image: %v", q.Name, err)
		}
		if got := digestOf(t, q, res); got != want[q.Name] {
			t.Errorf("%s: resumed result digest %s, recorded %s", q.Name, got, want[q.Name])
		}
	}
}

// TestQ21ResumesToRecordedDigest suspends Q21, whose EXISTS and NOT EXISTS
// are right-semi and right-anti joins, at 25, 50 and 75 % of its processed
// bytes, at both levels, and resumes each in a fresh executor: every run
// returns the recorded result bytes. At least one process-level suspension
// lands inside a mark pipeline, with its bitmaps in flight.
func TestQ21ResumesToRecordedDigest(t *testing.T) {
	cat := queryCatalog(t)
	q := mustGet(t, 21)
	want := recordedDigests(t)[q.Name]
	node := q.Build(plan.NewBuilder(cat), testSF)
	compile := func() *engine.PhysicalPlan {
		pp, err := engine.CompileWith(node, cat, engine.CompileOptions{})
		if err != nil {
			t.Fatal(err)
		}
		return pp
	}
	acct := engine.NewAccountant()
	if _, err := engine.NewExecutor(compile(), engine.Options{Workers: 1, Accountant: acct}).Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	inMark := false
	for _, kind := range []engine.SuspendKind{engine.KindPipeline, engine.KindProcess} {
		for _, pct := range []int64{25, 50, 75} {
			run := fmt.Sprintf("%v suspension at %d%%", kind, pct)
			pp := compile()
			ex := engine.NewExecutor(pp, engine.Options{Workers: 1})
			ex.SuspendWhen(kind, acct.ProcessedBytes()*pct/100)
			if _, err := ex.Run(context.Background()); !errors.Is(err, engine.ErrSuspended) {
				t.Fatalf("%s: Run = %v, want a suspension", run, err)
			}
			for _, f := range ex.Suspended().InFlight {
				inMark = inMark || strings.Contains(pp.Pipelines[f.Pipeline].Label, "mark(")
			}
			var buf bytes.Buffer
			if err := ex.SaveState(vector.NewEncoder(&buf)); err != nil {
				t.Fatalf("%s: save: %v", run, err)
			}
			resumed := engine.NewExecutor(compile(), engine.Options{Workers: 1})
			if err := resumed.LoadState(vector.NewDecoder(&buf)); err != nil {
				t.Fatalf("%s: load: %v", run, err)
			}
			res, err := resumed.Run(context.Background())
			if err != nil {
				t.Fatalf("%s: resume: %v", run, err)
			}
			if got := digestOf(t, q, res); got != want {
				t.Errorf("%s: result digest %s, recorded %s", run, got, want)
			}
		}
	}
	if !inMark {
		t.Error("no process-level suspension landed inside a mark pipeline")
	}
}
