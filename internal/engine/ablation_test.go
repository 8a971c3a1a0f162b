package engine_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"testing"

	"github.com/riveterdb/riveter/internal/engine"
	"github.com/riveterdb/riveter/internal/plan"
	"github.com/riveterdb/riveter/internal/tpch"
	"github.com/riveterdb/riveter/internal/vector"
)

// retentionQ1 compiles TPC-H Q1 at SF 0.01 and returns a function that runs
// it with the accountant's Retention set, suspends it at the process level
// once 60% of a clean run's bytes have flowed, and returns the process
// image's padded size: the serialized state plus the modeled padding.
func retentionQ1(t testing.TB) func(retention float64) int64 {
	t.Helper()
	const sf = 0.01
	cat, err := tpch.Generate(tpch.Config{SF: sf})
	if err != nil {
		t.Fatal(err)
	}
	q, err := tpch.Get(1)
	if err != nil {
		t.Fatal(err)
	}
	node := q.Build(plan.NewBuilder(cat), sf)
	// run suspends at the processed-bytes mark.
	run := func(opts engine.Options, mark int64) (*engine.Executor, error) {
		pp, err := engine.CompileWith(node, cat, engine.CompileOptions{})
		if err != nil {
			t.Fatal(err)
		}
		ex := engine.NewExecutor(pp, opts)
		ex.SuspendWhen(engine.KindProcess, mark)
		_, err = ex.Run(context.Background())
		return ex, err
	}
	clean, err := run(engine.Options{Workers: 2}, math.MaxInt64) // a mark no run reaches
	if err != nil {
		t.Fatal(err)
	}
	mark := clean.Accountant().ProcessedBytes() * 6 / 10
	return func(retention float64) int64 {
		acct := engine.NewAccountant()
		acct.Retention = retention
		ex, err := run(engine.Options{Workers: 2, Accountant: acct}, mark)
		if !errors.Is(err, engine.ErrSuspended) {
			t.Fatalf("retention %.2f: run ended with %v, want a suspension", retention, err)
		}
		var buf bytes.Buffer
		enc := vector.NewEncoder(&buf)
		if err := ex.SaveState(enc); err != nil {
			t.Fatal(err)
		}
		if err := enc.Err(); err != nil {
			t.Fatal(err)
		}
		state := int64(buf.Len())
		return state + ex.ProcessImagePadding(state)
	}
}

// TestRetentionAblation validates the CRIU-image model knob: a higher
// retention fraction yields larger process-level images at the same
// suspension point (DESIGN.md §8 calls this substitution out; the ablation
// shows the experiment shapes depend on it in the expected direction).
func TestRetentionAblation(t *testing.T) {
	image := retentionQ1(t)
	sizes := []int64{image(0.1), image(0.7)}
	if !(sizes[0] < sizes[1]) {
		t.Errorf("process image must grow with retention: %v", sizes)
	}
}

// BenchmarkRetentionAblation reports process-image sizes across retention
// settings (ablation of the process-image model).
func BenchmarkRetentionAblation(b *testing.B) {
	image := retentionQ1(b)
	for _, retention := range []float64{engine.DefaultRetention, 0.35, 0.7} {
		b.Run(fmt.Sprintf("retention-%.2f", retention), func(b *testing.B) {
			var total int64
			for i := 0; i < b.N; i++ {
				total += image(retention)
			}
			b.ReportMetric(float64(total)/float64(b.N), "ckpt-bytes/op")
		})
	}
}
