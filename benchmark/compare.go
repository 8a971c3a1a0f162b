package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"text/tabwriter"
)

// spec is the part of BENCHMARK.json a comparison needs: which end-to-end
// metrics there are, which direction is better, and how far each may move.
type spec struct {
	EndToEnd []specMetric `json:"end_to_end"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

const specFile = "BENCHMARK.json"

func readSpec(path string) (*spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("-compare reads the bounds from %s in the working directory: %w", path, err)
	}
	var s spec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// verdict of one (workload, metric) row of a comparison.
const (
	verdictOK         = "ok"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
)

// compareRow holds one end-to-end metric of one workload across two sets.
type compareRow struct {
	Workload, Metric, Unit string
	MedianA, MedianB       float64
	// SpreadA and SpreadB are each set's interquartile range as a share of
	// its median; Worse is how much worse B's median is than A's as a share
	// of A's (negative: better).
	SpreadA, SpreadB, Worse, Bound float64
	NA, NB                         int
	Verdict                        string
}

// judge applies the rule of the choosing-metrics guide: when either set's
// own spread is wider than the bound the metric cannot be resolved; else B
// is worse when its median moved the wrong way by more than the bound.
func judge(a, b []float64, m specMetric) compareRow {
	sa, sb := summarize(a), summarize(b)
	row := compareRow{Metric: m.Name, Unit: m.Unit, MedianA: sa.P50, MedianB: sb.P50, NA: sa.N, NB: sb.N, Bound: m.Bound}
	row.SpreadA, row.SpreadB = spread(a), spread(b)
	row.Worse = (sb.P50 - sa.P50) / abs(sa.P50)
	if m.Better == "higher" {
		row.Worse = -row.Worse
	}
	switch {
	case row.SpreadA > m.Bound || row.SpreadB > m.Bound:
		row.Verdict = verdictUnresolved
	case row.Worse > m.Bound:
		row.Verdict = verdictWorse
	default:
		row.Verdict = verdictOK
	}
	return row
}

// spread is a set's interquartile range as a share of its median.
func spread(v []float64) float64 {
	q1, q3 := quartiles(v)
	return (q3 - q1) / abs(median(v))
}

// loadSet reads every untraced report a glob matches, keyed by workload.
func loadSet(pattern string) (map[string][]*Report, error) {
	paths, err := filepath.Glob(pattern)
	if err != nil {
		return nil, err
	}
	if len(paths) == 0 {
		return nil, fmt.Errorf("no report matches %s", pattern)
	}
	set := map[string][]*Report{}
	for _, p := range paths {
		r, err := readReport(p)
		if err != nil {
			return nil, err
		}
		if r.Trace {
			continue // traced runs carry no end-to-end metrics
		}
		set[r.Workload] = append(set[r.Workload], r)
	}
	return set, nil
}

func contractValues(reports []*Report, metric string) []float64 {
	var out []float64
	for _, r := range reports {
		if m, ok := r.Contract[metric]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}

// compareSets prints one row per workload and end-to-end metric, B against
// A, and reports whether any row is worse or unresolved.
func compareSets(w io.Writer, patternA, patternB string) (bad bool, err error) {
	sp, err := readSpec(specFile)
	if err != nil {
		return false, err
	}
	setA, err := loadSet(patternA)
	if err != nil {
		return false, err
	}
	setB, err := loadSet(patternB)
	if err != nil {
		return false, err
	}
	rows := compareReports(sp, setA, setB)
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tA median (n, spread)\tB median (n, spread)\tB worse by\tbound\tverdict")
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%s\t%s\t%.4f (%d, %.1f%%)\t%.4f (%d, %.1f%%)\t%+.1f%%\t%.0f%%\t%s\n",
			r.Workload, r.Metric, r.Unit, r.MedianA, r.NA, r.SpreadA*100, r.MedianB, r.NB, r.SpreadB*100, r.Worse*100, r.Bound*100, r.Verdict)
		if r.Verdict != verdictOK {
			bad = true
		}
	}
	return bad, tw.Flush()
}

func compareReports(sp *spec, setA, setB map[string][]*Report) []compareRow {
	var workloads []string
	for name := range setA {
		if _, ok := setB[name]; ok {
			workloads = append(workloads, name)
		}
	}
	sort.Strings(workloads)
	var rows []compareRow
	for _, name := range workloads {
		for _, m := range sp.EndToEnd {
			row := judge(contractValues(setA[name], m.Name), contractValues(setB[name], m.Name), m)
			row.Workload = name
			rows = append(rows, row)
		}
	}
	return rows
}
