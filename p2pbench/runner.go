package main

import (
	"fmt"
	"runtime"
	"time"
)

// workload is one prepared input set and the front end it drives.
// Preparation (input generation and the reference) happens before any
// timing; rep then builds the front end, replays the inputs once and
// releases the front end. accuracy is one untimed, checked replay with
// the filters at the accuracy geometry (see accuracyBits), whose false
// positives give fpr. setup builds the timed front end as rep does and
// returns its release, for extra set-up samples. layers runs the
// workload's part of the traced run for budget.
type workload interface {
	rep(tr *tracer) (repOut, error)
	accuracy() (repOut, error)
	setup() (release func(), err error)
	layers(tr *tracer, budget time.Duration) (tally, error)
}

// workloads prepare each workload for a seed; traced keeps what the
// traced run's shadow passes need.
var workloads = map[string]func(seed uint64, size float64, traced bool) (workload, error){
	"campus":  prepareCampus,
	"offload": prepareOffload,
	"isp":     prepareISP,
	"fleet":   prepareFleet,
}

// workloadOrder is the order the traced run visits the workloads in.
var workloadOrder = []string{"campus", "offload", "isp", "fleet"}

// repOut is what one repetition — one set-up and one replay — reports.
type repOut struct {
	setup   time.Duration
	replay  time.Duration
	packets int64 // packets offered to the front end
	// latencies are the per-batch latencies of the replay, in µs.
	latencies []float64

	failed   int64
	failures []string

	// falsePos over unsolicited is the replay's false-positive rate;
	// fpr takes it from the accuracy replay.
	falsePos, unsolicited int64

	// heapBytes is the front end's heap after the replay (after GC),
	// allocs the heap allocations of set-up plus replay.
	heapBytes int64
	allocs    uint64
}

// fail records a failed check with n failed packets.
func (o *repOut) fail(n int64, format string, args ...any) {
	if n <= 0 {
		n = 1
	}
	o.failed += n
	if len(o.failures) < 8 {
		o.failures = append(o.failures, fmt.Sprintf(format, args...))
	}
}

// memProbe brackets a repetition for the heap and allocation figures.
type memProbe struct {
	heap, mallocs uint64
}

// startMem collects garbage and notes the heap before the front end is
// built.
func startMem() memProbe {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return memProbe{heap: ms.HeapAlloc, mallocs: ms.Mallocs}
}

// stop records the allocations since start, collects garbage and
// records the heap the front end still holds. keep is the front end,
// kept reachable until the heap is measured.
func (m memProbe) stop(out *repOut, keep ...any) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	out.allocs = ms.Mallocs - m.mallocs
	runtime.GC()
	runtime.ReadMemStats(&ms)
	out.heapBytes = int64(ms.HeapAlloc) - int64(m.heap)
	runtime.KeepAlive(keep)
}

// minReps is the fewest measured repetitions a run makes, whatever its
// --seconds.
const minReps = 3

// setupTrials is how many set-ups each measured repetition samples: its
// own and setupTrials−1 extra ones before it, timed and released. A
// workload with long replays makes few repetitions in a run; the extra
// samples steady its setup_s.
const setupTrials = 8

// runEndToEnd measures one workload with tracing off: one warm-up
// repetition, then repetitions until --seconds of measuring time have
// passed.
func runEndToEnd(opts options) (record, error) {
	w, err := workloads[opts.workload](opts.seed, opts.size, false)
	if err != nil {
		return record{}, err
	}
	var rec record
	account := func(out repOut) {
		rec.Attempted += out.packets
		rec.Failed += out.failed
		rec.Failures = appendFailures(rec.Failures, out.failures)
	}
	// The accuracy replay is deterministic for a seed: one gives fpr.
	acc, err := w.accuracy()
	if err != nil {
		return record{}, err
	}
	account(acc)
	var fpr []float64
	if acc.unsolicited > 0 {
		fpr = append(fpr, float64(acc.falsePos)/float64(acc.unsolicited))
	}
	var pps, p50, p99, heapMB, allocs, setup []float64
	budget := time.Duration(opts.seconds * float64(time.Second))
	start := time.Now()
	for i := 0; ; i++ {
		if i > minReps && time.Since(start) >= budget {
			break
		}
		if i > 0 {
			for j := 1; j < setupTrials; j++ {
				t := time.Now()
				release, err := w.setup()
				if err != nil {
					return record{}, err
				}
				setup = append(setup, time.Since(t).Seconds())
				release()
			}
		}
		out, err := w.rep(nil)
		if err != nil {
			return record{}, err
		}
		account(out)
		if i == 0 {
			// Warm-up: caches, lazy set-up and the benchmark's own
			// buffers settle; checked, not measured.
			start = time.Now()
			continue
		}
		// One sample per repetition: a median over repetitions shrugs
		// off the bursts of outside load a shared host brings, where a
		// figure pooled over the run would carry them.
		pps = append(pps, float64(out.packets)/out.replay.Seconds())
		p50 = append(p50, percentile(out.latencies, 50))
		p99 = append(p99, percentile(out.latencies, 99))
		rec.Batches += len(out.latencies)
		heapMB = append(heapMB, float64(out.heapBytes)/(1<<20))
		allocs = append(allocs, float64(out.allocs)/float64(out.packets))
		setup = append(setup, out.setup.Seconds())
	}
	rec.Metrics = map[string]summary{
		"pps":            summarize(pps, "1/s"),
		"batch_p50_us":   summarize(p50, "us"),
		"batch_p99_us":   summarize(p99, "us"),
		"fpr":            summarize(fpr, "ratio"),
		"mem_mb":         summarize(heapMB, "MB"),
		"allocs_per_pkt": summarize(allocs, "count"),
		"setup_s":        summarize(setup, "s"),
	}
	return rec, nil
}

func appendFailures(dst, src []string) []string {
	for _, f := range src {
		if len(dst) >= 16 {
			break
		}
		dst = append(dst, f)
	}
	return dst
}
