package main

import "time"

// tracer accumulates the time spent in spans around the benchmark's
// calls into each layer, plus counters and per-repetition samples taken
// at the same boundaries. Every method is a no-op on a nil tracer and
// then reads no clock, so one replay loop serves the untraced and the
// traced run.
type tracer struct {
	totals  map[string]*spanTotal
	counts  map[string]float64
	samples map[string][]float64
}

type spanTotal struct {
	ns    int64
	spans int64
	items int64
}

func newTracer() *tracer {
	return &tracer{
		totals:  make(map[string]*spanTotal),
		counts:  make(map[string]float64),
		samples: make(map[string][]float64),
	}
}

// now reads the clock for a span start.
func (t *tracer) now() time.Time {
	if t == nil {
		return time.Time{}
	}
	return time.Now()
}

// span adds the interval from start to now, covering items packets, to
// name's total and returns its end as the next span's start.
func (t *tracer) span(name string, start time.Time, items int) time.Time {
	if t == nil {
		return time.Time{}
	}
	end := time.Now()
	tot := t.totals[name]
	if tot == nil {
		tot = &spanTotal{}
		t.totals[name] = tot
	}
	tot.ns += int64(end.Sub(start))
	tot.spans++
	tot.items += int64(items)
	return end
}

// add accumulates a counter.
func (t *tracer) add(name string, v float64) {
	if t != nil {
		t.counts[name] += v
	}
}

// set overwrites a gauge.
func (t *tracer) set(name string, v float64) {
	if t != nil {
		t.counts[name] = v
	}
}

// sample appends one observation.
func (t *tracer) sample(name string, v float64) {
	if t != nil {
		t.samples[name] = append(t.samples[name], v)
	}
}

// total returns a span name's accumulated time, span count and items.
func (t *tracer) total(name string) spanTotal {
	if tot := t.totals[name]; tot != nil {
		return *tot
	}
	return spanTotal{}
}

// perItem is a span name's mean time per covered packet, in ns.
func (t *tracer) perItem(name string) float64 {
	tot := t.total(name)
	if tot.items == 0 {
		return 0
	}
	return float64(tot.ns) / float64(tot.items)
}

// perSpan is a span name's mean duration in the given unit.
func (t *tracer) perSpan(name string, unit time.Duration) float64 {
	tot := t.total(name)
	if tot.spans == 0 {
		return 0
	}
	return float64(tot.ns) / float64(tot.spans) / float64(unit)
}
