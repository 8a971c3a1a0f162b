package riveter

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/riveterdb/riveter/internal/engine"
	"github.com/riveterdb/riveter/internal/vector"
)

// recordedDigests reads the result digests internal/tpch records for the 22
// TPC-H queries at SF 0.01 on one worker.
func recordedDigests(t *testing.T) map[string]string {
	t.Helper()
	f, err := os.Open(filepath.Join("internal", "tpch", "testdata", "results_sf001.sha256"))
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
	return want
}

// resultDigest hashes a result's serialized buffer, as the recording does.
func resultDigest(t *testing.T, res *Result) string {
	t.Helper()
	h := sha256.New()
	enc := vector.NewEncoder(h)
	res.Buf.Save(enc)
	if err := enc.Err(); err != nil {
		t.Fatal(err)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestResumeInPlaceMatchesRecordedResults: every TPC-H query, suspended at
// a third and at two thirds of its input at both kinds and continued in
// place on the executor that quiesced, returns its uninterrupted result —
// on one worker the bytes recorded in internal/tpch/testdata, on two (where
// a pipeline-kind suspension discards the locals of the sibling pipelines
// still in flight, and the continuation reruns them) the same rows.
// Nothing is re-encoded on the way, so a sink that merged worker state into
// its global state before its pipeline finalized would show here.
func TestResumeInPlaceMatchesRecordedResults(t *testing.T) {
	want := recordedDigests(t)
	ctx := context.Background()
	for _, workers := range []int{1, 2} {
		db := Open(WithWorkers(workers), WithCheckpointDir(t.TempDir()))
		if err := db.GenerateTPCH(0.01); err != nil {
			t.Fatal(err)
		}
		landed := map[engine.SuspendKind]int{}
		for id := 1; id <= 22; id++ {
			q, err := db.PrepareTPCH(id)
			if err != nil {
				t.Fatal(err)
			}
			// An unarmed run sizes the query's input.
			clean, err := q.Start(ctx)
			if err != nil {
				t.Fatal(err)
			}
			ref, err := clean.Result()
			if err != nil {
				t.Fatal(err)
			}
			if got := resultDigest(t, ref); workers == 1 && got != want[q.Name()] {
				t.Fatalf("%s: clean digest %s, recorded %s", q.Name(), got, want[q.Name()])
			}
			total := clean.ProcessedBytes()
			for _, kind := range []engine.SuspendKind{engine.KindPipeline, engine.KindProcess} {
				for _, at := range []int64{total / 3, 2 * total / 3} {
					// Armed at a processed-bytes mark, the suspension lands
					// where it does regardless of timing.
					exec, err := q.start(nil)
					if err != nil {
						t.Fatal(err)
					}
					exec.ex.SuspendWhen(kind, at)
					err = exec.launch(ctx).Wait()
					if errors.Is(err, ErrSuspended) {
						landed[kind]++
						if exec, err = exec.ResumeInPlace(ctx); err != nil {
							t.Fatalf("%s: resume in place: %v", q.Name(), err)
						}
						err = exec.Wait()
					}
					if err != nil {
						t.Fatalf("%s: %v", q.Name(), err)
					}
					res, _ := exec.Result()
					if workers == 1 {
						if got := resultDigest(t, res); got != want[q.Name()] {
							t.Errorf("%s suspended at %d of %d bytes, kind %d, continued in place: digest %s, recorded %s",
								q.Name(), at, total, kind, got, want[q.Name()])
						}
					} else if res.SortedKey() != ref.SortedKey() {
						t.Errorf("%s on %d workers suspended at %d of %d bytes, kind %d, continued in place: rows differ from a clean run",
							q.Name(), workers, at, total, kind)
					}
				}
			}
		}
		// One worker makes every landing deterministic: each mark leaves
		// work, and a breaker, after it. On two a pipeline-kind request can
		// meet the end of the query first.
		if landed[engine.KindProcess] != 44 || (workers == 1 && landed[engine.KindPipeline] != 44) || landed[engine.KindPipeline] == 0 {
			t.Errorf("%d workers: suspensions landed: pipeline %d, process %d of 44 each", workers, landed[engine.KindPipeline], landed[engine.KindProcess])
		}
	}
}
