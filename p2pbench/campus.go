package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"time"

	"p2pbound"
	"p2pbound/internal/core"
	"p2pbound/internal/ingest"
	"p2pbound/internal/packet"
	"p2pbound/internal/red"
	"p2pbound/internal/throughput"
)

// snapEvery is the campus daemon's periodic snapshot interval in trace
// time (p2pboundd -snapshot).
const snapEvery = 2 * time.Second

// campusWL is the p2pboundd replay loop on one goroutine: the ingest
// tier reads the capture in batches, each batch is converted and
// decided by Limiter.ProcessBatch with Telemetry attached, and the
// state is saved every snapEvery of trace time. Set-up restores the
// state a previous run saved after the capture's first warmDuration,
// and the replay resumes the capture there, as a -state boot does.
type campusWL struct {
	// timed is the geometry of the timed replays, acc that of the
	// accuracy replay.
	timed, acc campusGeometry
	capture    []byte
	warm       int // capture records the restored state already decided
	firstTS    time.Duration
	ref        *reference
	// replay is the decoded replay, kept for the traced run's shadow
	// stages; pub is the same packets converted.
	replay []packet.Packet
	pub    []p2pbound.Packet

	// corrupt turns the first must-match verdict of the next
	// repetition into a drop, so self-tests can prove the check fires.
	corrupt bool

	skip, b  *ingest.Batch
	batch    []p2pbound.Packet
	verdicts []p2pbound.Decision
	save     bytes.Buffer
	lat      []float64
}

// campusGeometry is a limiter configuration and the state it saved
// after the warm-up.
type campusGeometry struct {
	cfg      p2pbound.Config
	snapshot []byte
}

func prepareCampus(seed uint64, size float64, traced bool) (workload, error) {
	capture, pkts, err := campusCapture(seed, size)
	if err != nil {
		return nil, err
	}
	warm := firstAt(pkts, scaled(warmDuration, size))
	if warm == len(pkts) {
		return nil, errors.New("campus: capture ends inside the warm-up")
	}
	// L and H bracket the replay's mean uplink so P_d sits on the ramp.
	mean := meanUplinkMbps(pkts[warm:])
	ref, err := buildReference(pkts, warm, vectors, rotateEvery, false)
	if err != nil {
		return nil, err
	}
	w := &campusWL{
		capture:  capture,
		warm:     warm,
		firstTS:  pkts[warm].TS,
		ref:      ref,
		skip:     ingest.NewBatch(batchSize),
		b:        ingest.NewBatch(batchSize),
		batch:    make([]p2pbound.Packet, 0, batchSize),
		verdicts: make([]p2pbound.Decision, 0, batchSize),
		lat:      make([]float64, 0, (len(pkts)-warm)/batchSize+2),
	}
	for _, g := range []struct {
		geo  *campusGeometry
		bits uint
	}{{&w.timed, defaultBits}, {&w.acc, accuracyBits}} {
		g.geo.cfg = limiterConfig(seed, g.bits, 0.5*mean, 1.5*mean)
		lim, _, err := decideCampus(g.geo.cfg, pkts[:warm])
		if err != nil {
			return nil, err
		}
		var snap bytes.Buffer
		if err := lim.SaveState(&snap); err != nil {
			return nil, err
		}
		g.geo.snapshot = snap.Bytes()
	}
	if traced {
		w.replay = pkts[warm:]
		w.pub = publicPackets(w.replay)
	}
	return w, nil
}

func (w *campusWL) rep(tr *tracer) (repOut, error) { return w.run(&w.timed, tr) }

func (w *campusWL) accuracy() (repOut, error) { return w.run(&w.acc, nil) }

func (w *campusWL) setup() (func(), error) {
	_, err := w.restore(&w.timed, p2pbound.NewTelemetry(), nil)
	return func() {}, err
}

// restore builds a limiter at geometry g with tel attached (nil for
// none) and restores the saved state, as a -state boot does.
func (w *campusWL) restore(g *campusGeometry, tel *p2pbound.Telemetry, tr *tracer) (*p2pbound.Limiter, error) {
	cfg := g.cfg
	cfg.Telemetry = tel
	lim, err := p2pbound.New(cfg)
	if err != nil {
		return nil, err
	}
	t := tr.now()
	if err := lim.RestoreState(bytes.NewReader(g.snapshot)); err != nil {
		return nil, err
	}
	tr.span("snapshot.restore", t, 0)
	return lim, nil
}

// run is one repetition with the limiter at geometry g.
func (w *campusWL) run(g *campusGeometry, tr *tracer) (repOut, error) {
	var out repOut
	src, err := ingest.NewMemSource(w.capture, campusNet, false)
	if err != nil {
		return out, err
	}
	// Resume the capture where the saved state left off; the records a
	// previous run decided are read before anything is measured.
	for left := w.warm; left > 0; {
		skip := ingest.Batch{Pkts: w.skip.Pkts[:min(left, len(w.skip.Pkts))]}
		n, err := src.ReadBatch(&skip)
		if err != nil || n == 0 {
			return out, fmt.Errorf("campus: skipping warm-up: %d records left: %v", left, err)
		}
		left -= n
	}

	mp := startMem()
	t0 := time.Now()
	tel := p2pbound.NewTelemetry()
	lim, err := w.restore(g, tel, tr)
	if err != nil {
		return out, err
	}
	out.setup = time.Since(t0)

	cls := w.ref.cls
	nextSnap := w.firstTS - w.firstTS%snapEvery + snapEvery
	pos := 0
	lat := w.lat[:0]
	start := time.Now()
	for {
		tb := time.Now()
		n, rerr := src.ReadBatch(w.b)
		t := tr.span("ingest.read", tb, n)
		if n > 0 {
			raw := w.b.Pkts[:n]
			w.batch = w.batch[:0]
			for i := range raw {
				w.batch = append(w.batch, publicPacket(&raw[i]))
			}
			t = tr.span("ingest.convert", t, n)
			w.verdicts = lim.ProcessBatch(w.batch, w.verdicts[:0])
			t = tr.span("limiter.process", t, n)
			if w.corrupt {
				w.corrupt = !corruptVerdict(w.verdicts, cls[pos:])
			}
			if len(w.verdicts) != n || pos+n > len(cls) {
				out.fail(int64(n), "campus: batch at %d: %d packets, %d verdicts", pos, n, len(w.verdicts))
			} else {
				for i, v := range w.verdicts {
					if v == p2pbound.Drop {
						if c := cls[pos+i]; c == mustMatch || c == mayMatch {
							out.fail(1, "campus: packet %d dropped though %v", w.warm+pos+i, c)
						}
					}
				}
			}
			t = tr.span("campus.check", t, n)
			pos += n
			if last := raw[n-1].TS; last >= nextSnap {
				w.save.Reset()
				if err := lim.SaveState(&w.save); err != nil {
					return out, err
				}
				for last >= nextSnap {
					nextSnap += snapEvery
				}
				tr.span("snapshot.save", t, n)
			}
			lat = append(lat, float64(time.Since(tb))/1e3)
			tr.span("campus.batch", tb, n)
		}
		if errors.Is(rerr, io.EOF) {
			break
		}
		if rerr != nil {
			return out, rerr
		}
	}
	out.replay = time.Since(start)
	mp.stop(&out, lim, tel)
	out.latencies = lat
	out.packets = int64(len(cls))

	if missing := len(cls) - pos; missing != 0 {
		out.fail(int64(missing), "campus: %d packets never decided", missing)
	}
	if m := src.Malformed(); m != 0 {
		out.fail(m, "campus: %d records malformed", m)
	}
	st := lim.Stats()
	if st.Unroutable != 0 {
		out.fail(st.Unroutable, "campus: %d packets unroutable", st.Unroutable)
	}
	fp, fn := w.ref.accuracy(st.InboundMatched)
	if fn > 0 {
		out.fail(fn, "campus: %d fewer inbound matches than the reference guarantees", fn)
	}
	out.falsePos, out.unsolicited = fp, w.ref.unsolicited

	if tr != nil {
		tr.set("ingest.malformed", float64(src.Malformed()))
		tr.set("snapshot.bytes", float64(len(g.snapshot)))
		var scrape bytes.Buffer
		ts := time.Now()
		if err := tel.WritePrometheus(&scrape); err != nil {
			return out, err
		}
		tr.span("telemetry.scrape", ts, 0)
		tr.set("telemetry.series", float64(countSeries(scrape.Bytes())))
	}
	return out, nil
}

// corruptVerdict turns the first must-match verdict into a drop and
// reports whether there was one.
func corruptVerdict(verdicts []p2pbound.Decision, cls []class) bool {
	for i := range verdicts {
		if i < len(cls) && cls[i] == mustMatch {
			verdicts[i] = p2pbound.Drop
			return true
		}
	}
	return false
}

// countSeries counts the sample lines of a Prometheus exposition.
func countSeries(text []byte) int {
	n := 0
	for _, line := range bytes.Split(text, []byte("\n")) {
		if len(line) > 0 && line[0] != '#' {
			n++
		}
	}
	return n
}

// layers is the campus part of the traced run: traced repetitions,
// each followed by a pass of the shadow stages and a telemetry overhead
// pass. Filter fill is sampled once, at the accuracy geometry, where fpr
// is measured.
func (w *campusWL) layers(tr *tracer, budget time.Duration) (tally, error) {
	var tl tally
	acc, err := w.shadow(nil, w.acc.snapshot)
	if err != nil {
		return tl, err
	}
	tr.set("core.fill", acc.fill)
	tr.set("core.est_fpr", acc.estFPR)
	start := time.Now()
	for i := 0; i < 1 || time.Since(start) < budget; i++ {
		out, err := w.rep(tr)
		if err != nil {
			return tl, err
		}
		tl.add(out)
		st, err := w.shadow(tr, w.timed.snapshot)
		if err != nil {
			return tl, err
		}
		tr.add("red.packets", float64(len(w.replay)))
		tr.add("red.ramp_packets", float64(st.ramp))
		tr.add("core.passes", 1)
		tr.add("core.rotations", float64(st.rotations))
		if err := w.telemetryOverhead(tr); err != nil {
			return tl, err
		}
	}
	return tl, nil
}

// shadowStats is what a shadow pass saw of the filter and the ramp.
type shadowStats struct {
	ramp, rotations int
	// fill is the mean vector utilisation over the pass, estFPR the
	// mean of fill^m.
	fill, estFPR float64
}

// shadow times the stages of the limiter's batch path through their
// public functions, fed the replay's packets: the filter restored from
// snapshot hashes (HashBatch) and probes (ProcessHashed) each chunk,
// with the P_d sequence the limiter's meter and ramp would give.
func (w *campusWL) shadow(tr *tracer, snapshot []byte) (shadowStats, error) {
	var st shadowStats
	f, err := core.ReadFilter(bytes.NewReader(snapshot))
	if err != nil {
		return st, err
	}
	meter, err := throughput.NewMeter(time.Second, 5)
	if err != nil {
		return st, err
	}
	prober, err := red.NewLinear(w.timed.cfg.LowMbps*1e6, w.timed.cfg.HighMbps*1e6)
	if err != nil {
		return st, err
	}
	var (
		pds              [core.BatchChunk]float64
		pd               float64
		pdValid          bool
		pdUntil          time.Duration
		fillSamples      int
		rotationsAtStart = f.Rotations()
	)
	pkts := w.replay
	for lo := 0; lo < len(pkts); lo += core.BatchChunk {
		chunk := pkts[lo:min(lo+core.BatchChunk, len(pkts))]
		t := tr.now()
		n := f.HashBatch(chunk)
		t = tr.span("core.hash", t, n)
		// The limiter recomputes P_d when its meter gains bytes or
		// time enters a new meter bucket; the shadow makes the same
		// calls.
		for i := range chunk {
			p := &chunk[i]
			if !pdValid || p.TS >= pdUntil {
				pd = prober.Pd(meter.Rate(p.TS))
				pdUntil = p.TS - p.TS%time.Second + time.Second
				pdValid = true
			}
			pds[i] = pd
			if p.Dir == packet.Outbound {
				meter.Add(p.TS, p.Len)
				pdValid = false
			}
			if pd > 0 && pd < 1 {
				st.ramp++
			}
		}
		t = tr.span("red.pd", t, n)
		for i := range chunk {
			f.Advance(chunk[i].TS)
			f.ProcessHashed(i, &chunk[i], pds[i])
		}
		f.FlushStats()
		tr.span("core.probe", t, n)
		if (lo/core.BatchChunk)%16 == 0 {
			u := f.Utilization()
			st.fill += u
			st.estFPR += math.Pow(u, hashFuncs)
			fillSamples++
		}
	}
	st.rotations = int(f.Rotations() - rotationsAtStart)
	st.fill /= float64(fillSamples)
	st.estFPR /= float64(fillSamples)
	return st, nil
}

// telemetryOverhead feeds the replay's batches to two limiters restored
// from the same state, one with Telemetry attached and one without, in
// alternating order, and samples the ratio of their ProcessBatch times
// per batch. Pairing within a batch keeps heap layout and outside load
// out of the ratio.
func (w *campusWL) telemetryOverhead(tr *tracer) error {
	var lims [2]*p2pbound.Limiter // attached, bare
	for i, tel := range []*p2pbound.Telemetry{p2pbound.NewTelemetry(), nil} {
		lim, err := w.restore(&w.timed, tel, nil)
		if err != nil {
			return err
		}
		lims[i] = lim
	}
	for b, lo := 0, 0; lo < len(w.pub); b, lo = b+1, lo+batchSize {
		batch := w.pub[lo:min(lo+batchSize, len(w.pub))]
		var took [2]time.Duration
		for j := range lims {
			i := (b + j) % 2
			t := time.Now()
			w.verdicts = lims[i].ProcessBatch(batch, w.verdicts[:0])
			took[i] = time.Since(t)
		}
		if took[1] > 0 {
			tr.sample("telemetry.ratio", float64(took[0])/float64(took[1]))
		}
	}
	return nil
}
