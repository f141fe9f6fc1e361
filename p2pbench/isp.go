package main

import (
	"bytes"
	"errors"
	"fmt"
	"time"

	"p2pbound"
	"p2pbound/internal/packet"
	"p2pbound/internal/trace"
)

// The isp edge: ispTenants /28 subscribers cover ispNet, and the
// campus model's traffic comes from ispClients hosts packed into the
// low ≈257 of them, so most subscribers are registered but idle. The
// hydration cap sits below the active set, so hydrate and evict run on
// the packet path.
const (
	ispClients    = 4096
	ispPrefixBits = 28
	ispTenants    = 1 << (ispPrefixBits - 15)
	ispHydrated   = 96
	ispEvictAfter = 10 * time.Second
	// ispBits sizes each subscriber's vectors for ≈10 concurrent flows
	// at the accuracy fill (≈55%), so the timed and the accuracy
	// replays share one geometry.
	ispBits = 5
)

var ispNet = packet.CIDR(packet.AddrFrom4(10, 0, 0, 0), 15)

// ispWL feeds a TenantPipeline with one shard and idle eviction from
// one producer; the hierarchical RED budget is on. Set-up registers the
// subscribers and restores the manager state saved after the traffic's
// first warmDuration.
type ispWL struct {
	mcfg     p2pbound.TenantManagerConfig
	tenants  []p2pbound.TenantConfig
	pub      []p2pbound.Packet // the timed replay
	snapshot []byte
	ref      *reference

	// The sequential reference: TenantManager.ProcessBatch over the
	// same restored state and packets.
	refPassed, refDropped int64
	// base is the restored state's folded counters.
	base p2pbound.Stats

	pending []pendingBatch
	lat     []float64
	// corrupt loses the first packet of the next repetition before it
	// reaches the pipeline (self-tests).
	corrupt bool
}

func prepareISP(seed uint64, size float64, traced bool) (workload, error) {
	tcfg := trace.DefaultConfig(scaled(campusDuration, size), campusScale, seed)
	tcfg.Clients = ispClients
	tcfg.ClientNet = ispNet
	tr, err := trace.Generate(tcfg)
	if err != nil {
		return nil, err
	}
	pkts := tr.Packets
	for i := range pkts {
		pkts[i].Payload = nil
	}
	warm := firstAt(pkts, scaled(warmDuration, size))
	if warm == len(pkts) {
		return nil, errors.New("isp: trace ends inside the warm-up")
	}
	active := float64((ispClients+2)>>(32-ispPrefixBits) + 1)
	mean := meanUplinkMbps(pkts[warm:])
	w := &ispWL{
		mcfg: p2pbound.TenantManagerConfig{
			Tenant: p2pbound.Config{
				LowMbps:       0.5 * mean / active,
				HighMbps:      1.5 * mean / active,
				Vectors:       vectors,
				VectorBits:    ispBits,
				HashFunctions: hashFuncs,
				RotateEvery:   rotateEvery,
				Seed:          seed,
			},
			PrefixBits:          ispPrefixBits,
			Shards:              1,
			AggregateLowMbps:    0.5 * mean,
			AggregateHighMbps:   1.5 * mean,
			MaxHydratedPerShard: ispHydrated,
		},
		tenants: make([]p2pbound.TenantConfig, ispTenants),
	}
	for i := range w.tenants {
		a := ispNet.Prefix + packet.Addr(i<<(32-ispPrefixBits))
		w.tenants[i].Network = fmt.Sprintf("%v/%d", toNetip(a), ispPrefixBits)
	}
	all := publicPackets(pkts)
	w.pub = all[warm:]

	warmMgr, err := w.register()
	if err != nil {
		return nil, err
	}
	decideTenants(warmMgr, all[:warm], nil)
	var snap bytes.Buffer
	if err := warmMgr.SaveTenantState(&snap); err != nil {
		return nil, err
	}
	w.snapshot = snap.Bytes()

	refMgr, err := w.register()
	if err != nil {
		return nil, err
	}
	if err := refMgr.RestoreTenantState(bytes.NewReader(w.snapshot)); err != nil {
		return nil, err
	}
	w.base = tenantTotals(refMgr)
	for _, v := range decideTenants(refMgr, w.pub, nil) {
		if v == p2pbound.Pass {
			w.refPassed++
		} else {
			w.refDropped++
		}
	}
	if w.ref, err = buildReference(pkts, warm, vectors, rotateEvery, false); err != nil {
		return nil, err
	}
	w.pending = make([]pendingBatch, 0, len(w.pub)/batchSize+2)
	w.lat = make([]float64, 0, len(w.pub)/batchSize+2)
	return w, nil
}

// register builds the manager and registers every subscriber.
func (w *ispWL) register() (*p2pbound.TenantManager, error) {
	m, err := p2pbound.NewTenantManager(w.mcfg)
	if err != nil {
		return nil, err
	}
	if err := m.AddTenants(w.tenants); err != nil {
		return nil, err
	}
	return m, nil
}

// decideTenants runs pkts through m sequentially in batches, timing the
// calls when tr is set, and returns the verdicts.
func decideTenants(m *p2pbound.TenantManager, pkts []p2pbound.Packet, tr *tracer) []p2pbound.Decision {
	verdicts := make([]p2pbound.Decision, 0, len(pkts))
	for lo := 0; lo < len(pkts); lo += batchSize {
		hi := min(lo+batchSize, len(pkts))
		t := tr.now()
		verdicts = m.ProcessBatch(pkts[lo:hi], verdicts)
		t = tr.span("tenant.process", t, hi-lo)
		if tr != nil {
			m.EvictIdle(ispEvictAfter)
			tr.span("tenant.evict", t, 0)
		}
	}
	return verdicts
}

// tenantTotals sums every subscriber's limiter counters.
func tenantTotals(m *p2pbound.TenantManager) p2pbound.Stats {
	var sum p2pbound.Stats
	for _, id := range m.TenantIDs() {
		st, _ := m.TenantStats(id)
		sum.OutboundPackets += st.OutboundPackets
		sum.InboundPackets += st.InboundPackets
		sum.InboundMatched += st.InboundMatched
		sum.InboundUnmatched += st.InboundUnmatched
		sum.Dropped += st.Dropped
		sum.Unroutable += st.Unroutable
	}
	return sum
}

func (w *ispWL) setup() (func(), error) {
	_, pl, err := w.build(nil)
	if err != nil {
		return nil, err
	}
	return pl.Close, nil
}

// build registers the subscribers, restores the saved manager state and
// starts the pipeline.
func (w *ispWL) build(tr *tracer) (*p2pbound.TenantManager, *p2pbound.TenantPipeline, error) {
	m, err := w.register()
	if err != nil {
		return nil, nil, err
	}
	t := tr.now()
	if err := m.RestoreTenantState(bytes.NewReader(w.snapshot)); err != nil {
		return nil, nil, err
	}
	tr.span("tenant.restore", t, 0)
	return m, p2pbound.NewTenantPipeline(m, p2pbound.TenantPipelineConfig{EvictAfter: ispEvictAfter}), nil
}

func (w *ispWL) rep(tr *tracer) (repOut, error) {
	var out repOut
	mp := startMem()
	t0 := time.Now()
	m, pl, err := w.build(tr)
	if err != nil {
		return out, err
	}
	defer pl.Close()
	out.setup = time.Since(t0)
	before := m.Stats()

	var submitted int64
	pending, lat := w.pending[:0], w.lat[:0]
	head := 0
	start := time.Now()
	for lo := 0; lo < len(w.pub); lo += batchSize {
		hi := min(lo+batchSize, len(w.pub))
		tb := time.Now()
		first := lo
		if w.corrupt {
			first, w.corrupt = lo+1, false
		}
		pl.SubmitBatch(w.pub[first:hi])
		tr.span("pipeline.submit", tb, hi-first)
		submitted += int64(hi - first)
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
	mp.stop(&out, m, pl)
	out.latencies = lat
	out.packets = int64(len(w.pub))

	// Verdict counts must equal the sequential reference's, nothing may
	// be shed, and the summed counters must account for every packet.
	passed, dropped := pl.Verdicts()
	if passed != w.refPassed || dropped != w.refDropped {
		out.fail(abs(passed-w.refPassed)+abs(dropped-w.refDropped)+(out.packets-passed-dropped),
			"isp: pipeline passed %d dropped %d, sequential reference %d/%d", passed, dropped, w.refPassed, w.refDropped)
	}
	shedPassed, shedDropped := pl.Shed()
	if shed := shedPassed + shedDropped; shed != 0 {
		out.fail(shed, "isp: %d packets shed", shed)
	}
	after := m.Stats()
	sum := tenantTotals(m)
	routed := sum.OutboundPackets + sum.InboundPackets + sum.Unroutable -
		(w.base.OutboundPackets + w.base.InboundPackets + w.base.Unroutable)
	unrouted := after.NoTenant + after.Unroutable - before.NoTenant - before.Unroutable
	if routed+unrouted != out.packets {
		out.fail(out.packets-routed-unrouted, "isp: counters account for %d of %d packets", routed+unrouted, out.packets)
	}
	if sum.InboundMatched+sum.InboundUnmatched != sum.InboundPackets {
		out.fail(1, "isp: matched %d + unmatched %d != inbound %d", sum.InboundMatched, sum.InboundUnmatched, sum.InboundPackets)
	}
	fp, fn := w.ref.accuracy(sum.InboundMatched - w.base.InboundMatched)
	if fn > 0 {
		out.fail(fn, "isp: %d fewer inbound matches than the reference guarantees", fn)
	}
	out.falsePos, out.unsolicited = fp, w.ref.unsolicited

	if tr != nil {
		tr.add("isp.reps", 1)
		tr.add("tenant.hydrations", float64(after.Hydrations-before.Hydrations))
		tr.add("tenant.evictions", float64(after.Evictions-before.Evictions))
		tr.set("tenant.arena_bytes", float64(after.ArenaBytes))
		tr.set("tenant.spill_bytes", float64(after.SpillBytes))
		tr.set("tenant.snapshot_bytes", float64(len(w.snapshot)))
		tr.add("pipeline.shed", float64(shedPassed+shedDropped))
	}
	return out, nil
}

// accuracy is an untimed repetition: subscriber filters already run at
// the accuracy fill (see ispBits).
func (w *ispWL) accuracy() (repOut, error) { return w.rep(nil) }

// layers is the isp part of the traced run: traced pipeline
// repetitions, each followed by a sequential pass of the same packets
// through TenantManager.ProcessBatch with EvictIdle between batches.
func (w *ispWL) layers(tr *tracer, budget time.Duration) (tally, error) {
	var tl tally
	start := time.Now()
	for i := 0; i < 1 || time.Since(start) < budget; i++ {
		out, err := w.rep(tr)
		if err != nil {
			return tl, err
		}
		tl.add(out)
		m, err := w.register()
		if err != nil {
			return tl, err
		}
		if err := m.RestoreTenantState(bytes.NewReader(w.snapshot)); err != nil {
			return tl, err
		}
		decideTenants(m, w.pub, tr)
	}
	return tl, nil
}

func abs(v int64) int64 {
	if v < 0 {
		return -v
	}
	return v
}
