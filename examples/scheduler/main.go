// Heterogeneous workloads (the paper's Case 1), served by the scheduling
// subsystem in internal/server.
//
// A long-running analytic query saturates the node while short dashboard
// queries queue behind it. Under the FIFO baseline the shorts wait for the
// long query to finish; under the suspension-aware policy the scheduler
// preempts the long query at its next morsel boundary (holding it in
// memory), drains the shorts, and continues the long query in place —
// turning one long-running query into a sequence of short-running pieces,
// with no hand-rolled suspend/drain/resume loop in sight.
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"github.com/riveterdb/riveter"
	"github.com/riveterdb/riveter/internal/server"
)

var shortQueries = []string{
	"SELECT count(*) AS open_orders FROM orders WHERE o_orderstatus = 'O'",
	"SELECT o_orderpriority, count(*) AS n FROM orders GROUP BY o_orderpriority ORDER BY o_orderpriority",
	"SELECT max(l_shipdate) AS latest_ship FROM lineitem",
}

// runWorkload submits the long query, then the shorts shortly after, and
// reports each short query's completion latency since its arrival.
func runWorkload(db *riveter.DB, policy server.Policy) (shortLatencies []time.Duration, longInfo server.Info, err error) {
	srv, err := server.New(server.Config{DB: db, Slots: 1, Policy: policy})
	if err != nil {
		return nil, server.Info{}, err
	}
	defer srv.Shutdown(context.Background())

	long, err := srv.Submit(server.Request{TPCH: 21, Priority: server.Batch})
	if err != nil {
		return nil, server.Info{}, err
	}
	// The short queries arrive shortly after the long query started.
	time.Sleep(10 * time.Millisecond)
	arrivals := make([]time.Time, len(shortQueries))
	shorts := make([]*server.Session, len(shortQueries))
	for i, s := range shortQueries {
		arrivals[i] = time.Now()
		if shorts[i], err = srv.Submit(server.Request{SQL: s, Priority: server.Interactive}); err != nil {
			return nil, server.Info{}, err
		}
	}
	for i, sess := range shorts {
		if _, err := srv.Wait(context.Background(), sess.ID()); err != nil {
			return nil, server.Info{}, err
		}
		shortLatencies = append(shortLatencies, time.Since(arrivals[i]))
	}
	if _, err := srv.Wait(context.Background(), long.ID()); err != nil {
		return nil, server.Info{}, err
	}
	info, _ := srv.Info(long.ID())
	return shortLatencies, info, nil
}

func main() {
	db := riveter.Open(riveter.WithWorkers(4))
	fmt.Println("generating TPC-H at scale factor 0.02 ...")
	if err := db.GenerateTPCH(0.02); err != nil {
		log.Fatal(err)
	}

	fmt.Println("\nFIFO baseline (shorts wait for the long query):")
	base, _, err := runWorkload(db, server.FIFO{})
	if err != nil {
		log.Fatal(err)
	}
	for i, d := range base {
		fmt.Printf("  short query %d completes %v after arrival\n", i+1, d.Round(time.Millisecond))
	}

	fmt.Println("\nsuspension-aware policy (long query preempted and held in memory):")
	pre, longInfo, err := runWorkload(db, server.SuspensionAware{})
	if err != nil {
		log.Fatal(err)
	}
	for i, d := range pre {
		fmt.Printf("  short query %d completes %v after arrival\n", i+1, d.Round(time.Millisecond))
	}
	fmt.Printf("  long query: %d preemption(s), ran %v, waited %v\n",
		longInfo.Preemptions, longInfo.Ran.Round(time.Millisecond), longInfo.Waited.Round(time.Millisecond))

	fmt.Printf("\nshort-query latency drops from the long query's full runtime to the\n")
	fmt.Printf("suspension lag plus their own execution — the long query only pays\n")
	fmt.Printf("quiesce+continue cycles.\n")
}
