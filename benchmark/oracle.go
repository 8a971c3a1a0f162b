package main

import (
	"context"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"strconv"

	"github.com/riveterdb/riveter"
	"github.com/riveterdb/riveter/internal/vector"
)

// goldenJSON holds the sha256 of Result.SortedKey() for every TPC-H query
// at every scale factor a workload runs, produced by -write-golden on the
// commit this benchmark was added on. The generator's data seed is fixed
// (DB.GenerateTPCH takes none), so (scale factor, query) identifies a
// result; --seed varies statement mixes and schedules, not the data.
//
//go:embed golden/digests.json
var goldenJSON []byte

type oracle struct {
	digests map[string]string
}

func goldenKey(sf float64, query int) string {
	return "sf=" + strconv.FormatFloat(sf, 'g', -1, 64) + "/Q" + strconv.Itoa(query)
}

func loadOracle() (*oracle, error) {
	o := &oracle{}
	if err := json.Unmarshal(goldenJSON, &o.digests); err != nil {
		return nil, fmt.Errorf("golden/digests.json: %w", err)
	}
	return o, nil
}

func digest(res *riveter.Result) string {
	sum := sha256.Sum256([]byte(res.SortedKey()))
	return hex.EncodeToString(sum[:])
}

// check compares a TPC-H result with its golden digest.
func (o *oracle) check(sf float64, query int, res *riveter.Result) error {
	want, ok := o.digests[goldenKey(sf, query)]
	if !ok {
		return fmt.Errorf("no golden digest for %s (run -write-golden)", goldenKey(sf, query))
	}
	if res == nil {
		return fmt.Errorf("%s: no result", goldenKey(sf, query))
	}
	if got := digest(res); got != want {
		return fmt.Errorf("%s: result digest %s, want %s (%d rows)", goldenKey(sf, query), got[:12], want[:12], res.NumRows())
	}
	return nil
}

// goldenScaleFactors lists every scale factor a workload (or its smoke
// variant) checks TPC-H results at.
var goldenScaleFactors = []float64{smokeSF, tpchSF, suspendSF, preemptSF}

// writeGolden regenerates golden/digests.json from the code it is linked
// against. Each query runs at two worker counts; a digest that depends on
// the worker count would make the oracle flaky, so that is an error.
func writeGolden(path, tmpBase string) error {
	ctx := context.Background()
	dir, err := runDir(tmpBase)
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	out := map[string]string{}
	seen := map[float64]bool{}
	for _, sf := range goldenScaleFactors {
		if seen[sf] {
			continue
		}
		seen[sf] = true
		var dbs []*riveter.DB
		for _, workers := range []int{1, runtime.NumCPU() + 1} {
			db := riveter.Open(riveter.WithWorkers(workers), riveter.WithCheckpointDir(dir))
			if err := db.GenerateTPCH(sf); err != nil {
				return err
			}
			dbs = append(dbs, db)
		}
		for id := 1; id <= numTPCH; id++ {
			var first string
			for i, db := range dbs {
				q, err := db.PrepareTPCH(id)
				if err != nil {
					return err
				}
				res, err := q.Run(ctx)
				if err != nil {
					return fmt.Errorf("%s: %w", goldenKey(sf, id), err)
				}
				d := digest(res)
				if i == 0 {
					first = d
				} else if d != first {
					return fmt.Errorf("%s: digest differs between worker counts", goldenKey(sf, id))
				}
			}
			out[goldenKey(sf, id)] = first
		}
	}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// renderRows renders a result the way the serving layer's HTTP API does
// (floats with two decimals, everything else by Value.String, at most
// maxRows rows), so a response's rows can be compared cell by cell with the
// in-process result of the same statement.
func renderRows(res *riveter.Result, maxRows int64) [][]string {
	n := res.NumRows()
	if n > maxRows {
		n = maxRows
	}
	rows := make([][]string, n)
	for i := int64(0); i < n; i++ {
		vals := res.Row(i)
		cells := make([]string, len(vals))
		for j, v := range vals {
			if v.Type == vector.TypeFloat64 && !v.Null {
				cells[j] = strconv.FormatFloat(v.F, 'f', 2, 64)
			} else {
				cells[j] = v.String()
			}
		}
		rows[i] = cells
	}
	return rows
}
