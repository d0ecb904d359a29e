package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"text/tabwriter"
)

// minPairs is how many parent/change pairs a claim needs.
const minPairs = 10

// runCompare applies the sandbox measurement rule to saved results: the
// files before "--" are the parent's runs, the files after it the
// change's, paired in the order given (run them alternating which side
// goes first). One row per metric and workload; every ratio names its base.
func runCompare(w io.Writer, args []string) error {
	var parent, change []record
	side := &parent
	for _, a := range args {
		if a == "--" {
			side = &change
			continue
		}
		blob, err := os.ReadFile(a)
		if err != nil {
			return err
		}
		var rec record
		if err := json.Unmarshal(blob, &rec); err != nil {
			return fmt.Errorf("%s: %w", a, err)
		}
		*side = append(*side, rec)
	}
	if len(parent) == 0 || len(change) == 0 {
		return fmt.Errorf("usage: --compare <parent.json...> -- <change.json...>")
	}

	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tparent median [q1, q3]\tchange median [q1, q3]\tchange/parent\twins\tverdict")
	for _, row := range compareRecords(parent, change) {
		fmt.Fprintf(tw, "%s\t%s\t%s\t%.6g [%.6g, %.6g]\t%.6g [%.6g, %.6g]\t%.4f of %.6g\t%d/%d\t%s\n",
			row.Workload, row.Metric, row.Unit,
			row.ParentMedian, row.ParentQ1, row.ParentQ3,
			row.ChangeMedian, row.ChangeQ1, row.ChangeQ3,
			row.Ratio, row.ParentMedian, row.Wins, row.Pairs, row.Verdict)
	}
	return tw.Flush()
}

// compareRow is the verdict on one metric of one workload.
type compareRow struct {
	Workload, Metric, Unit           string
	ParentQ1, ParentMedian, ParentQ3 float64
	ChangeQ1, ChangeMedian, ChangeQ3 float64
	Ratio                            float64 // change median / parent median
	Wins, Pairs                      int
	Verdict                          string
}

func compareRecords(parent, change []record) []compareRow {
	type key struct{ workload, metric string }
	collect := func(recs []record) map[key][]float64 {
		out := make(map[key][]float64)
		for _, r := range recs {
			for name, v := range r.Result.Metrics {
				k := key{r.Workload, name}
				out[k] = append(out[k], v.Value)
			}
		}
		return out
	}
	pv, cv := collect(parent), collect(change)
	var keys []key
	for k := range pv {
		if _, ok := cv[k]; ok {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, k int) bool {
		if keys[i].workload != keys[k].workload {
			return keys[i].workload < keys[k].workload
		}
		return keys[i].metric < keys[k].metric
	})
	var rows []compareRow
	for _, k := range keys {
		decl := declOf(k.metric)
		row := judge(pv[k], cv[k], decl.Better == "higher", decl.Bound)
		row.Workload, row.Metric, row.Unit = k.workload, k.metric, decl.Unit
		rows = append(rows, row)
	}
	return rows
}

// judge compares one metric's paired runs. A gain needs at least minPairs
// pairs, the change winning nine tenths of them (ties count for neither
// side) and the medians apart by more than the distance between the
// parent's own quartiles. A metric whose run-to-run spread exceeds its
// bound on either side is unresolved, never "unchanged". bound 0 (a
// per-layer metric) skips the regression and spread tests.
func judge(parent, change []float64, higherIsBetter bool, bound float64) compareRow {
	row := compareRow{Pairs: min(len(parent), len(change))}
	better := func(a, b float64) bool { // is a better than b
		if higherIsBetter {
			return a > b
		}
		return a < b
	}
	for i := 0; i < row.Pairs; i++ {
		if better(change[i], parent[i]) {
			row.Wins++
		}
	}
	if len(parent) < 2 || len(change) < 2 {
		row.ParentMedian, row.ChangeMedian = median(parent), median(change)
		row.Verdict = "too few runs to compare"
		return row
	}
	row.ParentQ1, row.ParentMedian, row.ParentQ3 = quartiles(parent)
	row.ChangeQ1, row.ChangeMedian, row.ChangeQ3 = quartiles(change)
	if row.ParentMedian != 0 {
		row.Ratio = row.ChangeMedian / row.ParentMedian
	}
	parentIQR := row.ParentQ3 - row.ParentQ1
	gap := row.ChangeMedian - row.ParentMedian
	if gap < 0 {
		gap = -gap
	}
	spread := func(q1, q2, q3 float64) float64 {
		if q2 == 0 {
			return 0
		}
		return (q3 - q1) / q2
	}
	switch {
	case row.Pairs < minPairs:
		row.Verdict = fmt.Sprintf("too few pairs (%d < %d)", row.Pairs, minPairs)
	case bound > 0 && (spread(row.ParentQ1, row.ParentMedian, row.ParentQ3) > bound || spread(row.ChangeQ1, row.ChangeMedian, row.ChangeQ3) > bound):
		row.Verdict = "unresolved: spread exceeds the bound"
	case better(row.ChangeMedian, row.ParentMedian) && 10*row.Wins >= 9*row.Pairs && gap > parentIQR:
		row.Verdict = "gain"
	case bound > 0 && !better(row.ChangeMedian, row.ParentMedian) && gap > bound*row.ParentMedian:
		row.Verdict = "regression: worse by more than the bound"
	default:
		row.Verdict = "no gain shown"
		if bound > 0 {
			row.Verdict = "within the bound"
		}
	}
	return row
}

// declOf finds a metric's declaration; unknown names compare as
// lower-is-better with no bound.
func declOf(name string) metricDecl {
	for _, set := range [][]metricDecl{endToEndDecls, perLayer} {
		for _, d := range set {
			if d.Name == name {
				return d
			}
		}
	}
	return metricDecl{Name: name, Better: "lower"}
}
