package main

import (
	"time"

	"p2pbound"
	"p2pbound/internal/offload"
	"p2pbound/internal/packet"
)

// offloadEvery is the shard worker's republish cadence, in worker
// batches.
const offloadEvery = 4

// offloadWL is the two-tier split: one producer goroutine probes the
// fast path over the pipeline's published verdict map and sends the
// misses through Pipeline.SubmitBatch; the one shard worker decides
// them and republishes the map every offloadEvery batches. P_d is
// pinned at 1, so drops depend on filter state alone.
type offloadWL struct {
	// timed is the geometry of the timed replays, acc that of the
	// accuracy replay.
	timed, acc offloadGeometry
	pkts       []packet.Packet
	pub        []p2pbound.Packet
	ref        *reference

	misses  []p2pbound.Packet
	pending []pendingBatch
	lat     []float64
	// missIdx records the escalated packets of a traced repetition for
	// the shadow publisher.
	missIdx []int32
	// corrupt loses one escalated packet of the next repetition before
	// it reaches the pipeline (self-tests).
	corrupt bool
}

// offloadGeometry is a limiter configuration and the bare limiter's drop
// count with it on the workload's packets: the split may drop fewer (a
// stale map only admits), never more.
type offloadGeometry struct {
	cfg       p2pbound.Config
	monoDrops int64
}

// pendingBatch is a submitted batch awaiting its verdicts: it is
// complete once the pipeline has decided target packets.
type pendingBatch struct {
	start  time.Time
	target int64
}

func prepareOffload(seed uint64, size float64, traced bool) (workload, error) {
	_, pkts, err := campusCapture(seed, size)
	if err != nil {
		return nil, err
	}
	ref, err := buildReference(pkts, 0, vectors, rotateEvery, false)
	if err != nil {
		return nil, err
	}
	w := &offloadWL{
		pkts:    pkts,
		pub:     publicPackets(pkts),
		ref:     ref,
		misses:  make([]p2pbound.Packet, 0, batchSize),
		pending: make([]pendingBatch, 0, len(pkts)/batchSize+2),
		lat:     make([]float64, 0, len(pkts)/batchSize+2),
	}
	for _, g := range []struct {
		geo  *offloadGeometry
		bits uint
	}{{&w.timed, defaultBits}, {&w.acc, accuracyBits}} {
		g.geo.cfg = limiterConfig(seed, g.bits, pinnedLowMbps, pinnedHighMbps)
		_, verdicts, err := decideCampus(g.geo.cfg, pkts)
		if err != nil {
			return nil, err
		}
		for _, v := range verdicts {
			if v == p2pbound.Drop {
				g.geo.monoDrops++
			}
		}
	}
	if traced {
		w.missIdx = make([]int32, 0, len(pkts))
	}
	return w, nil
}

func (w *offloadWL) rep(tr *tracer) (repOut, error) { return w.run(&w.timed, tr) }

func (w *offloadWL) accuracy() (repOut, error) { return w.run(&w.acc, nil) }

func (w *offloadWL) setup() (func(), error) {
	pl, _, err := buildOffload(w.timed.cfg)
	if err != nil {
		return nil, err
	}
	return pl.Close, nil
}

// buildOffload starts the pipeline and the fast path over its map.
func buildOffload(cfg p2pbound.Config) (*p2pbound.Pipeline, *offload.FastPath, error) {
	pl, err := p2pbound.NewPipeline(cfg, p2pbound.PipelineConfig{Shards: 1, OffloadEvery: offloadEvery})
	if err != nil {
		return nil, nil, err
	}
	fp, err := offload.NewFastPath(pl.OffloadMap())
	if err != nil {
		pl.Close()
		return nil, nil, err
	}
	return pl, fp, nil
}

// run is one repetition with the limiter at geometry g.
func (w *offloadWL) run(g *offloadGeometry, tr *tracer) (repOut, error) {
	var out repOut
	mp := startMem()
	t0 := time.Now()
	pl, fp, err := buildOffload(g.cfg)
	if err != nil {
		return out, err
	}
	defer pl.Close()
	out.setup = time.Since(t0)

	var inboundHits, submitted int64
	pending, lat := w.pending[:0], w.lat[:0]
	missIdx := w.missIdx[:0]
	head := 0
	start := time.Now()
	for lo := 0; lo < len(w.pkts); lo += batchSize {
		hi := min(lo+batchSize, len(w.pkts))
		tb := time.Now()
		w.misses = w.misses[:0]
		for i := lo; i < hi; i++ {
			p := &w.pkts[i]
			if fp.Probe(p.Pair, p.Dir) == offload.Hit {
				if p.Dir == packet.Inbound {
					inboundHits++
				}
				continue
			}
			w.misses = append(w.misses, w.pub[i])
			if tr != nil {
				missIdx = append(missIdx, int32(i))
			}
		}
		t := tr.span("offload.probe", tb, hi-lo)
		if w.corrupt && len(w.misses) > 0 {
			w.misses, w.corrupt = w.misses[1:], false
		}
		if len(w.misses) > 0 {
			pl.SubmitBatch(w.misses)
			submitted += int64(len(w.misses))
		}
		tr.span("pipeline.submit", t, len(w.misses))
		pending = append(pending, pendingBatch{start: tb, target: submitted})
		passed, dropped := pl.Verdicts()
		for head < len(pending) && pending[head].target <= passed+dropped {
			lat = append(lat, float64(time.Since(pending[head].start))/1e3)
			head++
		}
	}
	td := time.Now()
	pl.Drain()
	tr.span("pipeline.drain", td, 0)
	for ; head < len(pending); head++ {
		lat = append(lat, float64(time.Since(pending[head].start))/1e3)
	}
	out.replay = time.Since(start)
	mp.stop(&out, pl, fp)
	out.latencies = lat
	out.packets = int64(len(w.pkts))

	// The split's account: every probe either hit (and passed) or
	// escalated, every escalation was decided, nothing was shed, and
	// the split dropped no more than the bare limiter.
	if probes := int64(fp.Hits() + fp.Escalations()); probes != out.packets {
		out.fail(out.packets-probes, "offload: %d probes for %d packets", probes, out.packets)
	}
	passed, dropped := pl.Verdicts()
	if decided := passed + dropped; decided != submitted {
		out.fail(submitted-decided, "offload: %d escalations, %d decided", submitted, decided)
	}
	if escalated := int64(fp.Escalations()); escalated != submitted {
		out.fail(escalated-submitted, "offload: %d escalations, %d submitted", escalated, submitted)
	}
	shedPassed, shedDropped := pl.Shed()
	if shed := shedPassed + shedDropped; shed != 0 {
		out.fail(shed, "offload: %d packets shed", shed)
	}
	if dropped > g.monoDrops {
		out.fail(dropped-g.monoDrops, "offload: split dropped %d, bare limiter %d", dropped, g.monoDrops)
	}
	st := pl.Stats()
	out.falsePos, _ = w.ref.accuracy(inboundHits + st.InboundMatched)
	out.unsolicited = w.ref.unsolicited

	if tr != nil {
		tr.add("offload.probes", float64(fp.Hits()+fp.Escalations()))
		tr.add("offload.hits", float64(fp.Hits()))
		tr.add("offload.retries", float64(fp.Retries()))
		tr.set("offload.map_bytes", float64(pl.OffloadMap().Size()))
		tr.add("pipeline.shed", float64(shedPassed+shedDropped))
		w.missIdx = missIdx
	}
	return out, nil
}

// layers is the offload part of the traced run: traced repetitions,
// each followed by a shadow publisher — a limiter deciding the same
// escalations in worker-sized batches and publishing its own map at the
// worker's cadence — whose PublishOffload calls are timed.
func (w *offloadWL) layers(tr *tracer, budget time.Duration) (tally, error) {
	var tl tally
	start := time.Now()
	for i := 0; i < 1 || time.Since(start) < budget; i++ {
		out, err := w.rep(tr)
		if err != nil {
			return tl, err
		}
		tl.add(out)
		if err := w.shadowPublish(tr); err != nil {
			return tl, err
		}
	}
	return tl, nil
}

func (w *offloadWL) shadowPublish(tr *tracer) error {
	lim, err := p2pbound.New(w.timed.cfg)
	if err != nil {
		return err
	}
	om, err := lim.NewOffloadMap()
	if err != nil {
		return err
	}
	const workerBatch = 256 // PipelineConfig.BatchSize default
	batch := make([]p2pbound.Packet, 0, workerBatch)
	verdicts := make([]p2pbound.Decision, 0, workerBatch)
	batches := 0
	for lo := 0; lo < len(w.missIdx); lo += workerBatch {
		batch = batch[:0]
		for _, i := range w.missIdx[lo:min(lo+workerBatch, len(w.missIdx))] {
			batch = append(batch, w.pub[i])
		}
		verdicts = lim.ProcessBatch(batch, verdicts[:0])
		if batches++; batches%offloadEvery == 0 {
			t := time.Now()
			if err := lim.PublishOffload(om); err != nil {
				return err
			}
			tr.span("offload.publish", t, len(batch))
		}
	}
	return nil
}
