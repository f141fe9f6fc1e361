// Command p2pbench is the p2pbound benchmark: it replays seeded
// workloads through the limiter's front ends, checks every workload's
// verdicts against an independent reference, and prints the metrics
// named in BENCHMARK.json.
//
//	p2pbench --workload campus --seed 1 --seconds 20 --trace 0
//	p2pbench compare old.jsonl new.jsonl
//
// With --trace 0 the run measures the end-to-end metrics of one
// workload with no instrumentation beyond one clock read per batch.
// With --trace 1 it replays every workload with spans around the calls
// into each layer and prints the per-layer metrics instead. The last
// line of standard output is always the JSON result; the line before it
// is the run's record (provenance, per-metric quartiles and sample
// counts), which compare mode reads.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"time"
)

// Seeds. defaultSeed is the seed a claim is developed on; heldOutSeed
// is kept back so the claim can be confirmed on inputs it was not
// tuned on.
const (
	defaultSeed = 1
	heldOutSeed = 7919
)

type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	// size scales every workload's input (trace duration): 1 is the
	// benchmark proper, the self-tests run a small fraction.
	size float64
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		if err := compareMain(os.Args[2:], os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "p2pbench compare:", err)
			os.Exit(2)
		}
		return
	}
	opts, err := parseFlags(os.Args[1:], os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "p2pbench:", err)
		os.Exit(2)
	}
	if err := run(opts, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "p2pbench:", err)
		os.Exit(1)
	}
}

func parseFlags(args []string, errOut io.Writer) (options, error) {
	fs := flag.NewFlagSet("p2pbench", flag.ContinueOnError)
	fs.SetOutput(errOut)
	opts := options{size: 1}
	var traceFlag int
	fs.StringVar(&opts.workload, "workload", "campus", "workload: campus, offload, isp or fleet")
	fs.Uint64Var(&opts.seed, "seed", defaultSeed, fmt.Sprintf("input seed (default %d; held-out seed %d)", defaultSeed, heldOutSeed))
	fs.Float64Var(&opts.seconds, "seconds", 20, "measuring time of the run")
	fs.IntVar(&traceFlag, "trace", 0, "0: end-to-end metrics; 1: traced per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return opts, err
	}
	if fs.NArg() > 0 {
		return opts, fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	if _, ok := workloads[opts.workload]; !ok {
		return opts, fmt.Errorf("unknown workload %q", opts.workload)
	}
	switch traceFlag {
	case 0:
	case 1:
		opts.trace = true
	default:
		return opts, fmt.Errorf("--trace must be 0 or 1, got %d", traceFlag)
	}
	if opts.seconds <= 0 {
		return opts, errors.New("--seconds must be positive")
	}
	return opts, nil
}

// metric is one reported value, as the result line carries it.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of a run's output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// record is the run's full account: provenance, every metric with its
// quartiles and sample count, and the correctness checks behind the
// failed count.
type record struct {
	Workload   string     `json:"workload"`
	Seed       uint64     `json:"seed"`
	Trace      bool       `json:"trace"`
	Seconds    float64    `json:"seconds"`
	Provenance provenance `json:"provenance"`
	Attempted  int64      `json:"attempted"`
	Failed     int64      `json:"failed"`
	FailedFrac float64    `json:"failed_frac"`
	Failures   []string   `json:"failures,omitempty"`
	// Batches is the number of batch latencies behind the batch_*
	// metrics, each a median over repetitions of one repetition's
	// percentile.
	Batches int                `json:"batches,omitempty"`
	Metrics map[string]summary `json:"metrics"`
}

func run(opts options, out io.Writer) error {
	start := time.Now()
	var (
		rec record
		err error
	)
	if opts.trace {
		rec, err = runTraced(opts)
	} else {
		rec, err = runEndToEnd(opts)
	}
	if err != nil {
		return err
	}
	rec.Workload, rec.Seed, rec.Trace = opts.workload, opts.seed, opts.trace
	rec.Seconds = time.Since(start).Seconds()
	rec.Provenance = collectProvenance(opts.seed)
	if rec.Attempted > 0 {
		rec.FailedFrac = float64(rec.Failed) / float64(rec.Attempted)
	}
	res := result{
		Correct:   rec.Failed == 0 && len(rec.Failures) == 0,
		Attempted: rec.Attempted,
		Failed:    rec.Failed,
		Metrics:   make(map[string]metric, len(rec.Metrics)),
	}
	defs := endToEnd
	if opts.trace {
		defs = perLayer
	}
	for _, d := range defs {
		s := rec.Metrics[d.name]
		res.Metrics[d.name] = metric{Value: s.Median, Unit: s.Unit}
	}
	recLine, err := json.Marshal(map[string]record{"record": rec})
	if err != nil {
		return err
	}
	resLine, err := json.Marshal(res)
	if err != nil {
		return err
	}
	for _, f := range rec.Failures {
		fmt.Fprintln(os.Stderr, "p2pbench: check failed:", f)
	}
	_, err = fmt.Fprintf(out, "%s\n%s\n", recLine, resLine)
	return err
}
