package server

import (
	"context"
	"testing"
	"time"

	"github.com/riveterdb/riveter"
)

// foldBenchQueries is the mixed burst workload: eight distinct TPC-H
// queries spanning scan-heavy aggregation (1, 6), multi-join (3, 5, 10),
// and semi-join/filter shapes (12, 14, 19), submitted foldBenchDups times
// each — 32 concurrent sessions.
var foldBenchQueries = []int{1, 3, 5, 6, 10, 12, 14, 19}

const foldBenchDups = 4

// burst serves the 32-session workload on a fresh server over db and
// returns the wall-clock time to drain it. The server folds at admission
// exactly when db was opened riveter.WithFold().
func burst(b *testing.B, db *riveter.DB) time.Duration {
	b.Helper()
	srv, err := New(Config{DB: db, Slots: 4, Policy: FIFO{}})
	if err != nil {
		b.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()
	defer srv.Shutdown(ctx)
	start := time.Now()
	ids := make([]string, 0, len(foldBenchQueries)*foldBenchDups)
	for d := 0; d < foldBenchDups; d++ {
		for _, q := range foldBenchQueries {
			sess, err := srv.Submit(Request{TPCH: q})
			if err != nil {
				b.Fatal(err)
			}
			ids = append(ids, sess.ID())
		}
	}
	for _, id := range ids {
		if _, err := srv.Wait(ctx, id); err != nil {
			b.Fatal(err)
		}
	}
	return time.Since(start)
}

// BenchmarkFoldBurst32 pairs the same 32-session mixed TPC-H burst with
// folding off and on — each iteration serves both, against the same
// generated data, so machine-load drift cancels — and reports the
// aggregate-throughput ratio as fold-speedup.
func BenchmarkFoldBurst32(b *testing.B) {
	const sf = 0.01
	plain := riveter.Open(riveter.WithWorkers(2), riveter.WithCheckpointDir(b.TempDir()))
	if err := plain.GenerateTPCH(sf); err != nil {
		b.Fatal(err)
	}
	folded := riveter.Open(riveter.WithWorkers(2), riveter.WithFold(), riveter.WithCheckpointDir(b.TempDir()))
	if err := folded.GenerateTPCH(sf); err != nil {
		b.Fatal(err)
	}
	var iso, fol time.Duration
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		iso += burst(b, plain)
		fol += burst(b, folded)
	}
	if fol > 0 {
		b.ReportMetric(iso.Seconds()/fol.Seconds(), "fold-speedup")
	}
}

// BenchmarkFoldSingleOverhead runs one session at a time, alternating
// between a plain database and a fold-enabled one, and reports the lone
// session's slowdown from the folding machinery (hub indirection, one
// shared-window copy per morsel) as single-overhead-pct: shared execution must cost a lone session next to
// nothing.
func BenchmarkFoldSingleOverhead(b *testing.B) {
	const sf = 0.01
	plain := riveter.Open(riveter.WithWorkers(2), riveter.WithCheckpointDir(b.TempDir()))
	if err := plain.GenerateTPCH(sf); err != nil {
		b.Fatal(err)
	}
	folded := riveter.Open(riveter.WithWorkers(2), riveter.WithFold(), riveter.WithCheckpointDir(b.TempDir()))
	if err := folded.GenerateTPCH(sf); err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	run := func(db *riveter.DB) time.Duration {
		q, err := db.PrepareTPCH(1)
		if err != nil {
			b.Fatal(err)
		}
		start := time.Now()
		e, err := q.Start(ctx)
		if err != nil {
			b.Fatal(err)
		}
		if err := e.Wait(); err != nil {
			b.Fatal(err)
		}
		if _, err := e.Result(); err != nil {
			b.Fatal(err)
		}
		return time.Since(start)
	}
	var base, withFold time.Duration
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		base += run(plain)
		withFold += run(folded)
	}
	if base > 0 {
		b.ReportMetric((withFold.Seconds()-base.Seconds())/base.Seconds()*100, "single-overhead-pct")
	}
}
