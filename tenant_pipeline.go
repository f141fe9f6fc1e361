package p2pbound

import "time"

// TenantPipelineConfig parameterizes a TenantPipeline. The zero value
// of every field selects a sensible default.
type TenantPipelineConfig struct {
	// RingSize is the per-shard ring capacity in packets, rounded up to
	// a power of two. Default 2048.
	RingSize int
	// BatchSize is the maximum number of packets a shard worker drains
	// and decides per wakeup. Default 256.
	BatchSize int
	// OnOverload selects the shed policy for packets arriving at a full
	// shard ring. Default ShedBlock (backpressure).
	OnOverload ShedPolicy
	// EvictAfter, when positive, makes each shard worker spill tenants
	// idle for at least this long whenever its ring runs dry — the lazy
	// eviction half of the hydration lifecycle, running on the shard's
	// single writer so it needs no locks against packet processing. Zero
	// disables automatic eviction (call EvictIdle yourself between
	// quiesced batches).
	EvictAfter time.Duration

	// testGate, when non-nil, holds every shard worker at startup until
	// the channel is closed, exactly as in PipelineConfig.
	testGate <-chan struct{}
}

// TenantPipeline is the concurrent driver for a TenantManager: one
// worker goroutine per tenant shard, each fed by a fixed-capacity ring.
// Producers route packets to the ring of the shard owning the packet's
// subscriber (both directions of a subscriber's flows reach the same
// shard), and each worker decides a packet only among the tenants its
// shard owns, so every tenant's packets are decided by exactly one
// goroutine — the single-writer contract the manager's hydration and
// eviction machinery relies on — even while AddTenants registers new
// subscribers. Packets matching no subscriber are carried to shard 0
// and dropped defensively there, preserving the manager's counters.
//
// Decisions are asynchronous, as with Pipeline; use the TenantManager
// directly when per-packet verdicts are needed.
type TenantPipeline struct {
	shardPool
	m          *TenantManager
	evictAfter time.Duration
}

// NewTenantPipeline starts one worker per tenant shard of m. Close must
// be called to stop the workers. The pipeline assumes ownership of
// packet processing on every shard: do not call m.Process,
// m.ProcessBatch, or m.EvictIdle while the pipeline is open.
func NewTenantPipeline(m *TenantManager, pcfg TenantPipelineConfig) *TenantPipeline {
	p := &TenantPipeline{m: m, evictAfter: pcfg.EvictAfter}
	p.start(p, "TenantPipeline", PipelineConfig{
		Shards:     m.Shards(),
		RingSize:   pcfg.RingSize,
		BatchSize:  pcfg.BatchSize,
		OnOverload: pcfg.OnOverload,
		testGate:   pcfg.testGate,
	}, m.cfg.Telemetry)
	return p
}

// Manager returns the TenantManager the pipeline drives.
func (p *TenantPipeline) Manager() *TenantManager { return p.m }

// route sends a packet to its subscriber's shard, or shard 0 for
// packets with no subscriber (worker 0 applies the manager's
// defensive-drop policy to them).
func (p *TenantPipeline) route(pkt Packet) int {
	if sh := p.m.shardOf(&pkt); sh >= 0 {
		return sh
	}
	return 0
}

// decide decides a batch through the manager (run-grouped per tenant),
// resolving each packet only among shard sh's tenants: a packet queued
// here before its subscriber was registered on another shard is a
// no-tenant drop, never a second writer on that shard.
//
//p2p:confined pipeworker
//p2p:confined tenantshard
func (p *TenantPipeline) decide(sh int, batch []Packet, dst []Decision) []Decision {
	return p.m.processBatch(batch, dst, p.m.shards[sh])
}

// betweenBatches does nothing: tenant shards have no per-batch work.
func (p *TenantPipeline) betweenBatches(int, int) {}

// idle spills shard sh's tenants idle past EvictAfter, on the shard's
// own worker — which is what lets eviction share unsynchronized state
// with packet processing.
//
//p2p:confined pipeworker
//p2p:confined tenantshard
func (p *TenantPipeline) idle(sh int) {
	if p.evictAfter > 0 {
		p.m.evictIdleShard(p.m.shards[sh], p.evictAfter)
	}
}
