package main

import (
	"fmt"
	"time"
)

// tally accumulates the correctness account of traced repetitions.
type tally struct {
	attempted, failed int64
	failures          []string
}

func (t *tally) add(out repOut) {
	t.attempted += out.packets
	t.failed += out.failed
	t.failures = appendFailures(t.failures, out.failures)
}

// runTraced is the traced run. Every layer is measured on the workload
// that exercises it, so it replays all four workloads — the named one
// first — each for a quarter of --seconds after one untraced warm-up
// repetition, and derives the per-layer metrics from the spans.
func runTraced(opts options) (record, error) {
	order := []string{opts.workload}
	for _, name := range workloadOrder {
		if name != opts.workload {
			order = append(order, name)
		}
	}
	tr := newTracer()
	budget := time.Duration(opts.seconds * float64(time.Second) / float64(len(order)))
	var rec record
	for _, name := range order {
		w, err := workloads[name](opts.seed, opts.size, true)
		if err != nil {
			return record{}, fmt.Errorf("%s: %w", name, err)
		}
		warm, err := w.rep(nil)
		if err != nil {
			return record{}, fmt.Errorf("%s: %w", name, err)
		}
		tl, err := w.layers(tr, budget)
		if err != nil {
			return record{}, fmt.Errorf("%s: %w", name, err)
		}
		tl.add(warm)
		rec.Attempted += tl.attempted
		rec.Failed += tl.failed
		rec.Failures = appendFailures(rec.Failures, tl.failures)
	}
	rec.Metrics = layerMetrics(tr)
	for _, l := range perLayer {
		if _, ok := rec.Metrics[l.name]; !ok {
			return record{}, fmt.Errorf("per-layer metric %s not measured", l.name)
		}
	}
	return rec, nil
}

// metricDef names a metric, its unit and which direction is better.
type metricDef struct {
	name, unit string
	higher     bool
}

// endToEnd are the untraced run's bounded metrics, the ones its result
// line carries.
var endToEnd = []metricDef{
	{"pps", "1/s", true},
	{"batch_p50_us", "us", false},
	{"fpr", "ratio", false},
	{"mem_mb", "MB", false},
	{"allocs_per_pkt", "count", false},
	{"setup_s", "s", false},
}

// recordOnly are untraced figures kept in the record but not in the
// result: on a shared host the batch latency tail swings with outside
// load by more than any bound the ledger allows.
var recordOnly = []metricDef{
	{"batch_p99_us", "us", false},
}

// perLayer are the traced run's metrics, grouped by layer.
var perLayer = []metricDef{
	{"ingest.ns_per_pkt", "ns", false},
	{"ingest.convert_ns_per_pkt", "ns", false},
	{"ingest.malformed", "count", false},
	{"limiter.ns_per_pkt", "ns", false},
	{"limiter.e2e_ns_per_pkt", "ns", false},
	{"limiter.unattributed_ns_per_pkt", "ns", false},
	{"limiter.stage_sum_ratio", "ratio", true},
	{"core.hash_ns_per_pkt", "ns", false},
	{"core.probe_ns_per_pkt", "ns", false},
	{"core.rotations", "count", false},
	{"core.fill", "ratio", false},
	{"core.est_fpr", "ratio", false},
	{"red.pd_ns_per_pkt", "ns", false},
	{"red.ramp_frac", "ratio", true},
	{"telemetry.scrape_us", "us", false},
	{"telemetry.series", "count", true},
	{"telemetry.overhead_frac", "ratio", false},
	{"snapshot.save_ms", "ms", false},
	{"snapshot.restore_ms", "ms", false},
	{"snapshot.bytes", "B", false},
	{"offload.probe_ns", "ns", false},
	{"offload.hit_frac", "ratio", true},
	{"offload.retries_per_probe", "count", false},
	{"offload.publish_us", "us", false},
	{"offload.map_bytes", "B", false},
	{"pipeline.submit_ns_per_pkt", "ns", false},
	{"pipeline.drain_us", "us", false},
	{"pipeline.shed", "count", false},
	{"tenant.ns_per_pkt", "ns", false},
	{"tenant.hydrations", "count", false},
	{"tenant.evictions", "count", false},
	{"tenant.evict_us", "us", false},
	{"tenant.arena_bytes", "B", false},
	{"tenant.spill_bytes", "B", false},
	{"tenant.snapshot_restore_ms", "ms", false},
	{"tenant.snapshot_bytes", "B", false},
	{"replica.sync_us", "us", false},
	{"replica.sync_frac", "ratio", false},
	{"replica.delta_bytes_per_pkt", "B", false},
	{"replica.digest_frames", "count", false},
	{"replica.repair_rounds", "count", false},
	{"replica.frames_rejected", "count", false},
	{"fleet.process_ns_per_pkt", "ns", false},
}

// layerMetrics derives the per-layer metrics from the traced run's
// spans, counters and samples.
func layerMetrics(tr *tracer) map[string]summary {
	m := make(map[string]summary, len(perLayer))
	unit := make(map[string]string, len(perLayer))
	for _, d := range perLayer {
		unit[d.name] = d.unit
	}
	put := func(name string, v float64, n int64) {
		m[name] = summary{Median: v, Q1: v, Q3: v, N: int(n), Unit: unit[name]}
	}
	perPass := func(counter, passes string) float64 {
		if p := tr.counts[passes]; p > 0 {
			return tr.counts[counter] / p
		}
		return 0
	}

	// ingest, limiter, core, red: the campus replay and its shadow
	// stages. The stage sum is compared with the traced end-to-end
	// batch time less the benchmark's own verdict check.
	read, conv := tr.total("ingest.read"), tr.total("ingest.convert")
	put("ingest.ns_per_pkt", tr.perItem("ingest.read"), read.spans)
	put("ingest.convert_ns_per_pkt", tr.perItem("ingest.convert"), conv.spans)
	put("ingest.malformed", tr.counts["ingest.malformed"], 1)
	proc := tr.total("limiter.process")
	put("limiter.ns_per_pkt", tr.perItem("limiter.process"), proc.spans)
	batch := tr.total("campus.batch")
	e2e := tr.perItem("campus.batch") - tr.perItem("campus.check")
	put("limiter.e2e_ns_per_pkt", e2e, batch.spans)
	hash, probe, pd := tr.total("core.hash"), tr.total("core.probe"), tr.total("red.pd")
	put("core.hash_ns_per_pkt", tr.perItem("core.hash"), hash.spans)
	put("core.probe_ns_per_pkt", tr.perItem("core.probe"), probe.spans)
	put("red.pd_ns_per_pkt", tr.perItem("red.pd"), pd.spans)
	save := tr.total("snapshot.save")
	saveNs := 0.0
	if batch.items > 0 {
		saveNs = float64(save.ns) / float64(batch.items)
	}
	stages := tr.perItem("ingest.read") + tr.perItem("ingest.convert") +
		tr.perItem("core.hash") + tr.perItem("core.probe") + tr.perItem("red.pd") + saveNs
	put("limiter.unattributed_ns_per_pkt", e2e-stages, batch.spans)
	ratio := 0.0
	if e2e > 0 {
		ratio = stages / e2e
	}
	put("limiter.stage_sum_ratio", ratio, batch.spans)
	passes := int64(tr.counts["core.passes"])
	put("core.rotations", perPass("core.rotations", "core.passes"), passes)
	// fill and est_fpr come from one pass at the accuracy geometry.
	put("core.fill", tr.counts["core.fill"], 1)
	put("core.est_fpr", tr.counts["core.est_fpr"], 1)
	rampFrac := 0.0
	if p := tr.counts["red.packets"]; p > 0 {
		rampFrac = tr.counts["red.ramp_packets"] / p
	}
	put("red.ramp_frac", rampFrac, int64(tr.counts["red.packets"]))

	// telemetry: scrape cost, series count, and the median per-batch
	// ratio of the ProcessBatch cost with Telemetry attached to that of
	// the bare limiter, less one.
	put("telemetry.scrape_us", tr.perSpan("telemetry.scrape", time.Microsecond), tr.total("telemetry.scrape").spans)
	put("telemetry.series", tr.counts["telemetry.series"], 1)
	ratios := tr.samples["telemetry.ratio"]
	overhead := 0.0
	if len(ratios) > 0 {
		overhead = median(ratios) - 1
	}
	put("telemetry.overhead_frac", overhead, int64(len(ratios)))

	// snapshot: the campus daemon's periodic saves and the set-up
	// restore.
	put("snapshot.save_ms", tr.perSpan("snapshot.save", time.Millisecond), save.spans)
	put("snapshot.restore_ms", tr.perSpan("snapshot.restore", time.Millisecond), tr.total("snapshot.restore").spans)
	put("snapshot.bytes", tr.counts["snapshot.bytes"], 1)

	// offload: the fast path's probes and a shadow publisher.
	probes := tr.counts["offload.probes"]
	ratioOf := func(num string) float64 {
		if probes == 0 {
			return 0
		}
		return tr.counts[num] / probes
	}
	put("offload.probe_ns", tr.perItem("offload.probe"), int64(probes))
	put("offload.hit_frac", ratioOf("offload.hits"), int64(probes))
	put("offload.retries_per_probe", ratioOf("offload.retries"), int64(probes))
	put("offload.publish_us", tr.perSpan("offload.publish", time.Microsecond), tr.total("offload.publish").spans)
	put("offload.map_bytes", tr.counts["offload.map_bytes"], 1)

	// pipeline: both asynchronous front ends (offload's Pipeline and
	// isp's TenantPipeline) together.
	sub := tr.total("pipeline.submit")
	put("pipeline.submit_ns_per_pkt", tr.perItem("pipeline.submit"), sub.spans)
	put("pipeline.drain_us", tr.perSpan("pipeline.drain", time.Microsecond), tr.total("pipeline.drain").spans)
	put("pipeline.shed", tr.counts["pipeline.shed"], 1)

	// tenant: the isp replay, and a sequential TenantManager pass.
	ispReps := int64(tr.counts["isp.reps"])
	put("tenant.ns_per_pkt", tr.perItem("tenant.process"), tr.total("tenant.process").spans)
	put("tenant.hydrations", perPass("tenant.hydrations", "isp.reps"), ispReps)
	put("tenant.evictions", perPass("tenant.evictions", "isp.reps"), ispReps)
	put("tenant.evict_us", tr.perSpan("tenant.evict", time.Microsecond), tr.total("tenant.evict").spans)
	put("tenant.arena_bytes", tr.counts["tenant.arena_bytes"], 1)
	put("tenant.spill_bytes", tr.counts["tenant.spill_bytes"], 1)
	put("tenant.snapshot_restore_ms", tr.perSpan("tenant.restore", time.Millisecond), tr.total("tenant.restore").spans)
	put("tenant.snapshot_bytes", tr.counts["tenant.snapshot_bytes"], 1)

	// replica: the fleet replay.
	fleetBatch, sync := tr.total("fleet.batch"), tr.total("replica.sync")
	put("replica.sync_us", tr.perSpan("replica.sync", time.Microsecond), sync.spans)
	syncFrac := 0.0
	if fleetBatch.ns > 0 {
		syncFrac = float64(sync.ns) / float64(fleetBatch.ns)
	}
	put("replica.sync_frac", syncFrac, sync.spans)
	fleetPkts := tr.total("fleet.process").items
	perPkt := 0.0
	if fleetPkts > 0 {
		perPkt = tr.counts["replica.delta_bytes"] / float64(fleetPkts)
	}
	put("replica.delta_bytes_per_pkt", perPkt, fleetPkts)
	fleetReps := int64(tr.counts["fleet.reps"])
	put("replica.digest_frames", perPass("replica.digest_frames", "fleet.reps"), fleetReps)
	put("replica.repair_rounds", perPass("replica.repair_rounds", "fleet.reps"), fleetReps)
	put("replica.frames_rejected", tr.counts["replica.frames_rejected"], fleetReps)
	put("fleet.process_ns_per_pkt", tr.perItem("fleet.process"), tr.total("fleet.process").spans)
	return m
}
