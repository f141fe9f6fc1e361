package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// tiny is the input size factor of the self-tests: four seconds of
// trace instead of eighty.
const tiny = 0.05

// runResult runs the benchmark in-process and parses its last line.
func runResult(t *testing.T, opts options) result {
	t.Helper()
	var out bytes.Buffer
	if err := run(opts, &out); err != nil {
		t.Fatalf("run %+v: %v", opts, err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) < 2 || !strings.HasPrefix(lines[len(lines)-2], `{"record":`) {
		t.Fatalf("output does not end in a record and a result:\n%s", out.String())
	}
	var res result
	dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&res); err != nil {
		t.Fatalf("result line: %v", err)
	}
	return res
}

// metricNames lists a definition table's names, sorted.
func metricNames(defs []metricDef) []string {
	names := make([]string, len(defs))
	for i, d := range defs {
		names[i] = d.name
	}
	sort.Strings(names)
	return names
}

// TestEveryMetricPrinted: on tiny inputs every workload prints every
// end-to-end metric, and the traced run prints every per-layer metric,
// with correct outputs.
func TestEveryMetricPrinted(t *testing.T) {
	for _, name := range workloadOrder {
		t.Run(name, func(t *testing.T) {
			res := runResult(t, options{workload: name, seed: heldOutSeed, seconds: 0.01, size: tiny})
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Fatalf("correct=%v failed=%d attempted=%d", res.Correct, res.Failed, res.Attempted)
			}
			if got, want := sortedKeys(res.Metrics), metricNames(endToEnd); !reflect.DeepEqual(got, want) {
				t.Fatalf("metrics %v, want %v", got, want)
			}
			for _, d := range endToEnd {
				if m := res.Metrics[d.name]; m.Unit != d.unit || m.Value <= 0 {
					t.Errorf("%s = %v %s, want a positive value in %s", d.name, m.Value, m.Unit, d.unit)
				}
			}
		})
	}
	t.Run("trace", func(t *testing.T) {
		res := runResult(t, options{workload: "fleet", seed: heldOutSeed, seconds: 0.01, size: tiny, trace: true})
		if !res.Correct || res.Failed != 0 {
			t.Fatalf("correct=%v failed=%d", res.Correct, res.Failed)
		}
		if got, want := sortedKeys(res.Metrics), metricNames(perLayer); !reflect.DeepEqual(got, want) {
			t.Fatalf("metrics %v, want %v", got, want)
		}
		if res.Metrics["red.ramp_frac"].Value <= 0 {
			t.Error("red.ramp_frac is 0: the campus replay never reached the RED ramp")
		}
	})
}

// TestChecksHaveTeeth corrupts one verdict fed to each workload's check,
// in a timed and in an accuracy repetition, and asserts the repetition
// reports failed packets.
func TestChecksHaveTeeth(t *testing.T) {
	for _, name := range workloadOrder {
		t.Run(name, func(t *testing.T) {
			w, err := workloads[name](heldOutSeed, tiny, false)
			if err != nil {
				t.Fatal(err)
			}
			clean, err := w.rep(nil)
			if err != nil {
				t.Fatal(err)
			}
			if clean.failed != 0 {
				t.Fatalf("clean repetition failed %d packets: %v", clean.failed, clean.failures)
			}
			timed := func() (repOut, error) { return w.rep(nil) }
			for _, run := range []func() (repOut, error){timed, w.accuracy} {
				switch w := w.(type) {
				case *campusWL:
					w.corrupt = true
				case *offloadWL:
					w.corrupt = true
				case *ispWL:
					w.corrupt = true
				case *fleetWL:
					w.corrupt = true
				}
				bad, err := run()
				if err != nil {
					t.Fatal(err)
				}
				if bad.failed == 0 {
					t.Fatal("a corrupted verdict went unnoticed")
				}
				t.Logf("failed_frac %g: %v", float64(bad.failed)/float64(bad.packets), bad.failures)
			}
		})
	}
}

// TestBenchmarkJSON: BENCHMARK.json names only workloads the program
// has, and exactly the metrics it prints, with the same units and
// directions.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []struct {
			Name, Unit, Better string
		} `json:"end_to_end"`
		PerLayer []struct {
			Name, Unit, Better string
		} `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	for _, w := range doc.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json names unknown workload %q", w.Name)
		}
	}
	check := func(kind string, got []struct{ Name, Unit, Better string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics, want %d", kind, len(got), len(want))
		}
		for i, d := range want {
			better := "lower"
			if d.higher {
				better = "higher"
			}
			if g := got[i]; g.Name != d.name || g.Unit != d.unit || g.Better != better {
				t.Errorf("%s[%d] = %+v, want %s %s %s", kind, i, g, d.name, d.unit, better)
			}
		}
	}
	check("end_to_end", doc.EndToEnd, endToEnd)
	check("per_layer", doc.PerLayer, perLayer)
}

// TestQuartilesMatchPython pins the quartile method to Python's
// statistics.quantiles(n=4).
func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		in   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3, 1, 2}, [3]float64{1, 2, 3}},
		{[]float64{4, 1}, [3]float64{0.25, 2.5, 4.75}},
	}
	for _, c := range cases {
		if got := quartiles(c.in); got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

// TestCompareVerdicts: ten alternating pairs where the changed side
// always wins by more than the base spread are improved; the mirror
// image is worse; interleaved values are unresolved.
func TestCompareVerdicts(t *testing.T) {
	pps := endToEnd[0]
	var base, faster, slower, mixed []float64
	for i := 0; i < 10; i++ {
		v := 100 + float64(i%3)
		base = append(base, v)
		faster = append(faster, v*1.2)
		slower = append(slower, v*0.8)
		mixed = append(mixed, v+float64(i%2*2-1)*0.5)
	}
	for _, c := range []struct {
		changed []float64
		want    string
	}{
		{faster, "improved"},
		{slower, "worse"},
		{mixed, "unresolved"},
		{faster[:5], "unresolved (fewer than 10 pairs)"},
	} {
		if got := compareMetric("campus", pps, "1/s", base, c.changed).verdict; got != c.want {
			t.Errorf("verdict %q, want %q", got, c.want)
		}
	}
}

// TestCompareMode runs compare on two files of benchmark output.
func TestCompareMode(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, scale float64) string {
		var buf bytes.Buffer
		for i := 0; i < 10; i++ {
			rec := record{Workload: "campus", Metrics: map[string]summary{
				"pps": {Median: scale * float64(100+i%3), Unit: "1/s"},
			}}
			line, _ := json.Marshal(map[string]record{"record": rec})
			buf.Write(line)
			buf.WriteString("\n{\"correct\":true}\n")
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	var out bytes.Buffer
	if err := compareMain([]string{write("base", 1), write("changed", 1.1)}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "improved") || !strings.Contains(out.String(), "10/10") {
		t.Fatalf("compare output:\n%s", out.String())
	}
}
