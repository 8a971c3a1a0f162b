package riveter

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"strings"
	"testing"
)

// TestTransferSuspensionRoundTrips: Q17 and Q20, whose aggregates a
// finished join build filters (predicate transfer), suspended on one
// worker at a quarter, a half and three quarters of the bytes a clean run
// processes, process-level and pipeline-level through a checkpoint file
// and by a lineage seal, resume to the bytes recorded in
// internal/tpch/testdata. Some process-level mark of each query lands
// inside its filtered aggregate's pipeline, so an image holds that
// aggregate's locals, and the build that filters it, in flight. The
// checkpoint sizes are logged.
func TestTransferSuspensionRoundTrips(t *testing.T) {
	want := recordedDigests(t)
	ctx := context.Background()
	db := Open(WithWorkers(1), WithCheckpointDir(t.TempDir()))
	if err := db.GenerateTPCH(0.01); err != nil {
		t.Fatal(err)
	}
	for _, id := range []int{17, 20} {
		q, err := db.PrepareTPCH(id)
		if err != nil {
			t.Fatal(err)
		}
		clean, err := q.Start(ctx)
		if err != nil {
			t.Fatal(err)
		}
		res, err := clean.Result()
		if err != nil {
			t.Fatal(err)
		}
		if got := resultDigest(t, res); got != want[q.Name()] {
			t.Fatalf("%s: clean digest %s, recorded %s", q.Name(), got, want[q.Name()])
		}
		total := clean.ProcessedBytes()
		inFiltered := false
		for _, pct := range []int64{25, 50, 75} {
			at := total * pct / 100
			for _, level := range []Strategy{ProcessLevel, PipelineLevel, LineageLevel} {
				var lineage *LineageConfig
				if level == LineageLevel {
					lineage = &LineageConfig{}
				}
				exec, err := q.start(lineage)
				if err != nil {
					t.Fatal(err)
				}
				if err := exec.SuspendWhen(level, at); err != nil {
					t.Fatal(err)
				}
				if err := exec.launch(ctx).Wait(); !errors.Is(err, ErrSuspended) {
					t.Fatalf("%s: %v suspension at %d %%: Wait = %v", q.Name(), level, pct, err)
				}
				var point ResumePoint
				if level == LineageLevel {
					info, err := exec.SealLineage()
					if err != nil {
						t.Fatal(err)
					}
					point = ResumePoint{Target: "lineage", Ref: info.Path}
				} else {
					for _, f := range exec.ex.Suspended().InFlight {
						inFiltered = inFiltered || level == ProcessLevel && strings.Contains(q.pp.Pipelines[f.Pipeline].Label, "keyfilter")
					}
					point = filePoint(filepath.Join(db.CheckpointDir(), fmt.Sprintf("%s-%d-%d.rvck", q.Name(), level, pct)))
					info, err := exec.Persist(ctx, point, PersistOptions{})
					if err != nil {
						t.Fatal(err)
					}
					t.Logf("%s %s at %d %%: %d state bytes, %d checkpoint bytes", q.Name(), info.Kind, pct, info.StateBytes, info.TotalBytes)
				}
				if got := resultDigest(t, finishFrom(t, q, point)); got != want[q.Name()] {
					t.Errorf("%s suspended %v at %d %% of %d bytes: resumed digest %s, recorded %s",
						q.Name(), level, pct, total, got, want[q.Name()])
				}
				if level == LineageLevel {
					_ = db.RemoveLineage(point.Ref)
				} else {
					_ = db.FS().Remove(point.Ref)
				}
			}
		}
		if !inFiltered {
			t.Errorf("%s: no process-level mark landed inside a filtered aggregate's pipeline", q.Name())
		}
	}
}
