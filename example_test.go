package riveter_test

import (
	"context"
	"errors"
	"fmt"
	"log"
	"os"
	"path/filepath"

	"github.com/riveterdb/riveter"
)

// ExampleDB_Query runs ad-hoc SQL over a generated TPC-H dataset.
func ExampleDB_Query() {
	dir, err := os.MkdirTemp("", "riveter-example-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	db := riveter.Open(riveter.WithWorkers(2), riveter.WithCheckpointDir(dir))
	if err := db.GenerateTPCH(0.002); err != nil {
		log.Fatal(err)
	}
	res, err := db.Query(context.Background(),
		"SELECT r_name FROM region ORDER BY r_name LIMIT 3")
	if err != nil {
		log.Fatal(err)
	}
	for _, row := range res.Rows() {
		fmt.Println(row[0])
	}
	// Output:
	// AFRICA
	// AMERICA
	// ASIA
}

// ExampleQuery_StartFrom suspends a running query, persists it, and resumes
// it — the core Riveter workflow.
func ExampleQuery_StartFrom() {
	dir, err := os.MkdirTemp("", "riveter-example-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	db := riveter.Open(riveter.WithWorkers(2), riveter.WithCheckpointDir(dir))
	if err := db.GenerateTPCH(0.002); err != nil {
		log.Fatal(err)
	}
	q, err := db.PrepareTPCH(1)
	if err != nil {
		log.Fatal(err)
	}
	exec, err := q.Start(context.Background())
	if err != nil {
		log.Fatal(err)
	}
	if err := exec.Suspend(riveter.PipelineLevel); err != nil {
		log.Fatal(err)
	}
	switch err := exec.Wait(); {
	case err == nil:
		fmt.Println("completed")
	case errors.Is(err, riveter.ErrSuspended):
		at := riveter.ResumePoint{Target: "file", Ref: filepath.Join(dir, "example-q1.rvck")}
		defer db.Discard(at)
		if _, err := exec.Persist(context.Background(), at, riveter.PersistOptions{}); err != nil {
			log.Fatal(err)
		}
		resumed, err := q.StartFrom(context.Background(), at, nil)
		if err != nil {
			log.Fatal(err)
		}
		res, err := resumed.Result()
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("resumed: %d rows\n", res.NumRows())
	default:
		log.Fatal(err)
	}
	// (No Output comment: whether the suspension lands before the tiny
	// query completes is timing-dependent, so this example is compile-only.)
}

// ExampleDB_PrepareTPCH shows the benchmark query registry.
func ExampleDB_PrepareTPCH() {
	dir, err := os.MkdirTemp("", "riveter-example-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	db := riveter.Open(riveter.WithWorkers(2), riveter.WithCheckpointDir(dir))
	if err := db.GenerateTPCH(0.002); err != nil {
		log.Fatal(err)
	}
	q, err := db.PrepareTPCH(6)
	if err != nil {
		log.Fatal(err)
	}
	res, err := q.Run(context.Background())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(q.Name(), res.NumRows())
	// Output:
	// Q6 1
}
