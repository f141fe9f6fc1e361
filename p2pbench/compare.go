package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"text/tabwriter"
)

// minPairs is the fewest old/new run pairs a verdict other than
// unresolved may rest on.
const minPairs = 10

// compareMain compares two result sets: files holding the output of
// benchmark runs (any lines; the record lines are used), the base runs
// first. Runs of one workload are paired in file order, so the sets
// should come from alternating base and changed runs.
//
//	p2pbench compare base.out changed.out
//
// Per workload and metric it prints both sides' median and quartiles
// over runs, the ratio of the medians with its base, the share of pairs
// the changed side won, and a verdict: improved or worse when that side
// won at least nine pairs in ten and the medians differ by more than
// the base runs' interquartile distance; unresolved otherwise.
func compareMain(args []string, out io.Writer) error {
	if len(args) != 2 {
		return errors.New("usage: p2pbench compare BASE CHANGED")
	}
	base, err := readRecords(args[0])
	if err != nil {
		return err
	}
	changed, err := readRecords(args[1])
	if err != nil {
		return err
	}
	rows := compareSets(base, changed)
	if len(rows) == 0 {
		return errors.New("no workload has records in both sets")
	}
	tw := tabwriter.NewWriter(out, 0, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tbase median [q1, q3]\tchanged median [q1, q3]\tchanged/base\tpairs won\tverdict")
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%s\t%.6g [%.6g, %.6g] n=%d\t%.6g [%.6g, %.6g] n=%d\t%.4f (base %.6g %s)\t%d/%d\t%s\n",
			r.workload, r.metric,
			r.base[1], r.base[0], r.base[2], r.nBase,
			r.changed[1], r.changed[0], r.changed[2], r.nChanged,
			r.ratio, r.base[1], r.unit, r.won, r.pairs, r.verdict)
	}
	return tw.Flush()
}

// comparison is one workload × metric row.
type comparison struct {
	workload, metric, unit string
	base, changed          [3]float64 // quartiles of the runs' values
	nBase, nChanged        int
	ratio                  float64
	won, lost, pairs       int
	verdict                string
}

// readRecords loads the record lines of a result file, grouped by
// workload (traced runs under "<workload>/trace"), in file order.
func readRecords(path string) (map[string][]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	sets := make(map[string][]record)
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<24)
	for sc.Scan() {
		var line struct {
			Record *record `json:"record"`
		}
		if json.Unmarshal(sc.Bytes(), &line) != nil || line.Record == nil {
			continue
		}
		key := line.Record.Workload
		if line.Record.Trace {
			key += "/trace"
		}
		sets[key] = append(sets[key], *line.Record)
	}
	return sets, sc.Err()
}

func compareSets(base, changed map[string][]record) []comparison {
	var rows []comparison
	for _, key := range sortedKeys(base) {
		b, c := base[key], changed[key]
		if len(c) == 0 {
			continue
		}
		for _, d := range append(append(append([]metricDef(nil), endToEnd...), recordOnly...), perLayer...) {
			bv, unit := metricValues(b, d.name)
			cv, _ := metricValues(c, d.name)
			if len(bv) == 0 || len(cv) == 0 {
				continue
			}
			rows = append(rows, compareMetric(key, d, unit, bv, cv))
		}
	}
	return rows
}

func compareMetric(workload string, d metricDef, unit string, bv, cv []float64) comparison {
	r := comparison{
		workload: workload, metric: d.name, unit: unit,
		base: quartiles(bv), changed: quartiles(cv),
		nBase: len(bv), nChanged: len(cv),
		pairs: min(len(bv), len(cv)),
	}
	r.ratio = r.changed[1] / r.base[1]
	for i := 0; i < r.pairs; i++ {
		switch better := cv[i] > bv[i]; {
		case cv[i] == bv[i]:
		case better == d.higher:
			r.won++
		default:
			r.lost++
		}
	}
	apart := math.Abs(r.changed[1]-r.base[1]) > r.base[2]-r.base[0]
	switch {
	case r.pairs < minPairs:
		r.verdict = fmt.Sprintf("unresolved (fewer than %d pairs)", minPairs)
	case apart && 10*r.won >= 9*r.pairs:
		r.verdict = "improved"
	case apart && 10*r.lost >= 9*r.pairs:
		r.verdict = "worse"
	default:
		r.verdict = "unresolved"
	}
	return r
}

// metricValues is one metric's value in each run, in run order.
func metricValues(runs []record, name string) ([]float64, string) {
	var vals []float64
	unit := ""
	for _, r := range runs {
		if s, ok := r.Metrics[name]; ok {
			vals = append(vals, s.Median)
			unit = s.Unit
		}
	}
	return vals, unit
}
