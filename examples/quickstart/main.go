// Quickstart: open a Riveter database, generate a small TPC-H dataset, run
// SQL, and survive a suspension — the 60-second tour of the framework.
package main

import (
	"context"
	"errors"
	"fmt"
	"log"
	"time"

	"github.com/riveterdb/riveter"
)

func main() {
	ctx := context.Background()

	// 1. Open a database and load data.
	db := riveter.Open(riveter.WithWorkers(4))
	fmt.Println("generating TPC-H at scale factor 0.01 ...")
	if err := db.GenerateTPCH(0.01); err != nil {
		log.Fatal(err)
	}
	for _, t := range db.Tables() {
		n, _ := db.NumRows(t)
		fmt.Printf("  %-10s %8d rows\n", t, n)
	}

	// 2. Ad-hoc SQL.
	res, err := db.Query(ctx, `
		SELECT l_returnflag, l_linestatus,
		       sum(l_quantity)       AS sum_qty,
		       avg(l_extendedprice)  AS avg_price,
		       count(*)              AS count_order
		FROM lineitem
		WHERE l_shipdate <= DATE '1998-09-02'
		GROUP BY l_returnflag, l_linestatus
		ORDER BY l_returnflag, l_linestatus`)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\npricing summary (TPC-H Q1 in SQL):\n%s\n", res)

	// 3. A benchmark query with suspension and resumption.
	q, err := db.PrepareTPCH(21) // the heaviest query: suppliers who kept orders waiting
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("running %s with a pipeline-level suspension mid-flight ...\n", q.Name())
	exec, err := q.Start(ctx)
	if err != nil {
		log.Fatal(err)
	}
	time.AfterFunc(20*time.Millisecond, func() { _ = exec.Suspend(riveter.PipelineLevel) })

	switch err := exec.Wait(); {
	case err == nil:
		r, _ := exec.Result()
		fmt.Printf("completed before the suspension landed: %d rows\n", r.NumRows())
	case errors.Is(err, riveter.ErrSuspended):
		at := riveter.ResumePoint{Target: "file", Ref: db.NewCheckpointPath("q21")}
		info, err := exec.Persist(ctx, at, riveter.PersistOptions{})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("suspended at a pipeline breaker; checkpoint: %d bytes (%s)\n", info.TotalBytes, info.Kind)

		// ... the spot instance is reclaimed here; later, on fresh capacity:
		resumed, err := q.StartFrom(ctx, at, nil)
		if err != nil {
			log.Fatal(err)
		}
		r, err := resumed.Result()
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("resumed from checkpoint and finished: %d rows\n%s", r.NumRows(), r.Format(5))
	default:
		log.Fatal(err)
	}
}
