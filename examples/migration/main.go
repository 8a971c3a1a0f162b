// Query migration (the paper's Case 2: database migration).
//
// Instead of live-migrating an entire database, Riveter suspends one
// resource-intensive query on the source node, ships the (small)
// pipeline-level checkpoint, and resumes it on a destination node that has
// its own copy of the data — with a different worker configuration, which
// pipeline-level checkpoints expressly allow.
package main

import (
	"context"
	"errors"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"time"

	"github.com/riveterdb/riveter"
)

func main() {
	ctx := context.Background()
	dataDir := filepath.Join(os.TempDir(), "riveter-migration-data")

	// Provision shared data: both "nodes" load the same table files, as two
	// cloud nodes would read the same object-store snapshot.
	fmt.Println("writing shared TPC-H snapshot ...")
	seedDB := riveter.Open()
	if err := seedDB.GenerateTPCH(0.02); err != nil {
		log.Fatal(err)
	}
	if err := seedDB.SaveDir(dataDir); err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dataDir)

	// Source node: 2 workers, starts the heavy query.
	source := riveter.Open(riveter.WithWorkers(2))
	if err := source.LoadDir(dataDir); err != nil {
		log.Fatal(err)
	}
	srcQuery, err := source.PrepareTPCH(9) // product type profit measure
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("source node (2 workers): starting Q9 ...")
	exec, err := srcQuery.Start(ctx)
	if err != nil {
		log.Fatal(err)
	}

	// The scheduler decides to migrate this query off the node.
	time.AfterFunc(15*time.Millisecond, func() { _ = exec.Suspend(riveter.PipelineLevel) })
	err = exec.Wait()
	if err == nil {
		r, _ := exec.Result()
		fmt.Printf("query finished before migration was needed (%d rows)\n", r.NumRows())
		return
	}
	if !errors.Is(err, riveter.ErrSuspended) {
		log.Fatal(err)
	}
	ckpt := riveter.ResumePoint{Target: "file", Ref: source.NewCheckpointPath("q9-migrate")}
	info, err := exec.Persist(ctx, ckpt, riveter.PersistOptions{})
	if err != nil {
		log.Fatal(err)
	}
	defer source.Discard(ckpt)
	fmt.Printf("source node: suspended Q9, checkpoint %d bytes -> %s\n", info.TotalBytes, ckpt.Ref)
	fmt.Println("  (migrating a query costs the intermediate state, not the database)")

	// Destination node: different worker count, same data, resumes.
	dest := riveter.Open(riveter.WithWorkers(4))
	if err := dest.LoadDir(dataDir); err != nil {
		log.Fatal(err)
	}
	destQuery, err := dest.PrepareTPCH(9)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("destination node (4 workers): resuming from checkpoint ...")
	start := time.Now()
	resumed, err := destQuery.StartFrom(ctx, ckpt, nil)
	if err != nil {
		log.Fatal(err)
	}
	res, err := resumed.Result()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("destination node: completed in %v, %d rows\n",
		time.Since(start).Round(time.Millisecond), res.NumRows())
	fmt.Printf("\nfirst rows:\n%s", res.Format(6))

	// Sanity: the migrated result matches a clean local run.
	clean, err := destQuery.Run(ctx)
	if err != nil {
		log.Fatal(err)
	}
	if clean.SortedKey() == res.SortedKey() {
		fmt.Println("\nverified: migrated result equals a clean run on the destination")
	} else {
		fmt.Println("\nMISMATCH between migrated and clean results")
	}
}
