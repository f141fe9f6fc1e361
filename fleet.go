package p2pbound

import (
	"fmt"
	"time"

	"p2pbound/internal/replica"
)

// FleetTransport moves replication frames between fleet members.
// Addresses are replica indexes 0..Replicas-1. Send is called with a
// frame buffer that is reused by the sender — implementations must
// copy it before returning. Deliver drains every frame queued for a
// replica, in order, invoking fn once per frame.
//
// netsim.Mesh satisfies this interface, so the chaos fabric can be
// plugged straight under a Fleet; the default (Transport nil) is an
// in-process lossless loopback.
type FleetTransport interface {
	Send(from, to int, frame []byte)
	Deliver(to int, fn func(frame []byte))
}

// loopback is the default FleetTransport: per-replica FIFO queues in
// memory, no loss, no reordering.
type loopback struct {
	queues [][][]byte
}

func (t *loopback) Send(from, to int, frame []byte) {
	t.queues[to] = append(t.queues[to], append([]byte(nil), frame...))
}

func (t *loopback) Deliver(to int, fn func(frame []byte)) {
	// Handlers may reply via Send — including back onto this queue for
	// a later round — so swap the slice out before draining.
	q := t.queues[to]
	t.queues[to] = nil
	for _, fr := range q {
		fn(fr)
	}
}

// FleetConfig sizes a replicated fleet of limiters.
type FleetConfig struct {
	// Replicas is the fleet size. Each replica is a full Limiter with
	// the complete RED thresholds — fleet members are independent edge
	// boxes that each see their own slice of the traffic, unlike
	// ShardedLimiter shards which split one box's uplink.
	Replicas int
	// DigestEvery / SuspectAfter tune the per-node anti-entropy
	// cadence and liveness horizon, in Sync rounds. Zero means the
	// replica package defaults.
	DigestEvery  int
	SuspectAfter int
	// Transport carries frames between members. Nil means an
	// in-process lossless loopback.
	Transport FleetTransport
}

// Fleet is a set of Limiter replicas sharing one logical {k×N}-bitmap
// via delta-encoded sync and anti-entropy repair (internal/replica).
// A flow marked on any member is admitted by every member once the
// fleet converges; replication can only add false positives, never
// false negatives.
//
// Concurrency contract: like ShardedLimiter, each replica index may be
// driven from its own goroutine via ProcessOnReplica, but Sync mutates
// every member's filter and node state, so it must run while no
// processing is in flight (a batch barrier). Members that have not
// completed their first full digest round run fail-closed (P_d = 1).
type Fleet struct {
	limiters  limiterSet
	nodes     []*replica.Node
	transport FleetTransport
}

// NewFleet builds fc.Replicas limiters from cfg (replica i uses
// cfg.Seed+i so drop draws stay reproducible) and wires their filters
// into a replication fleet. Multi-member fleets start fail-closed
// until the first digest round completes; a fleet of one is ready
// immediately.
func NewFleet(cfg Config, fc FleetConfig) (*Fleet, error) {
	if fc.Replicas <= 0 {
		return nil, fmt.Errorf("p2pbound: fleet size must be positive, got %d", fc.Replicas)
	}
	fl := &Fleet{transport: fc.Transport}
	if fl.transport == nil {
		fl.transport = &loopback{queues: make([][][]byte, fc.Replicas)}
	}
	ids := make([]uint32, fc.Replicas)
	for i := range ids {
		ids[i] = uint32(i + 1) // replica IDs are 1-based on the wire
	}
	for i := 0; i < fc.Replicas; i++ {
		memberCfg := cfg
		memberCfg.Seed = cfg.Seed + uint64(i)
		l, err := New(memberCfg)
		if err != nil {
			return nil, err
		}
		peers := make([]uint32, 0, fc.Replicas-1)
		for _, id := range ids {
			if id != ids[i] {
				peers = append(peers, id)
			}
		}
		// The node owns the limiter's current filter; fleet members
		// must not RestoreState/AdoptState (that would swap the filter
		// out from under the node). Restore-by-snapshot is a single-box
		// workflow — a fleet member rejoins empty and heals via repair.
		node, err := replica.NewNode(l.filter.Load(), replica.Config{
			ID:           ids[i],
			Peers:        peers,
			DigestEvery:  fc.DigestEvery,
			SuspectAfter: fc.SuspectAfter,
		})
		if err != nil {
			return nil, err
		}
		l.SetFailClosed(!node.Ready())
		fl.limiters = append(fl.limiters, l)
		fl.nodes = append(fl.nodes, node)
	}
	if cfg.Telemetry != nil {
		cfg.Telemetry.attachReplicas(fl)
	}
	return fl, nil
}

// Replicas returns the fleet size.
func (fl *Fleet) Replicas() int { return len(fl.limiters) }

// ReplicaOf returns the member index packet p belongs to, by the same
// order-independent connection hash ShardedLimiter uses, so a test or
// daemon fanning one traffic source across the fleet keeps both
// directions of a connection on the same member. Real deployments
// route by topology instead; any member gives the same verdict after
// convergence. Unroutable packets map to replica 0.
func (fl *Fleet) ReplicaOf(p Packet) int { return fl.limiters.route(p) }

// ProcessOnReplica decides a packet on member i. The caller must
// ensure each member index is used from one goroutine at a time, with
// non-decreasing per-member timestamps, and that Sync is not running.
func (fl *Fleet) ProcessOnReplica(i int, p Packet) Decision {
	return fl.limiters[i].Process(p)
}

// Process routes the packet to its member and decides it — the
// single-goroutine convenience form.
func (fl *Fleet) Process(p Packet) Decision {
	return fl.ProcessOnReplica(fl.ReplicaOf(p), p)
}

// Sync runs one replication round: every member emits its pending
// deltas (and, on its digest cadence, range digests), then drains its
// inbox, then its fail-closed gate is refreshed from readiness.
// Call it between batches, from a single goroutine, with no
// processing in flight. On a lossless transport a new mark is visible
// fleet-wide after one round.
func (fl *Fleet) Sync() {
	for i, n := range fl.nodes {
		n.Tick(fl.outboxFor(i))
	}
	for i, n := range fl.nodes {
		node, out := n, fl.outboxFor(i)
		fl.transport.Deliver(i, func(frame []byte) {
			// Rejected frames are counted in the node's FramesRejected
			// metric; a lossy transport makes them routine, so they are
			// not fatal here.
			_ = node.Handle(frame, out)
		})
	}
	for i, n := range fl.nodes {
		fl.limiters[i].SetFailClosed(!n.Ready())
	}
}

// outboxFor adapts member i's node Outbox onto the transport
// (replica IDs are 1-based, transport addresses 0-based).
func (fl *Fleet) outboxFor(i int) replica.Outbox {
	return func(to uint32, frame []byte) {
		fl.transport.Send(i, int(to)-1, frame)
	}
}

// Ready reports whether member i has completed its first full digest
// round and serves traffic un-degraded.
func (fl *Fleet) Ready(i int) bool { return fl.nodes[i].Ready() }

// ReplicaMetrics snapshots member i's replication telemetry.
func (fl *Fleet) ReplicaMetrics(i int) replica.Metrics { return fl.nodes[i].Metrics() }

// Limiter returns member i's limiter, for stats and state inspection.
// Do not call RestoreState/AdoptState on a fleet member.
func (fl *Fleet) Limiter(i int) *Limiter { return fl.limiters[i] }

// MemoryBytes returns the total bitmap memory across members.
func (fl *Fleet) MemoryBytes() int { return fl.limiters.memoryBytes() }

// ExpiryHorizon returns the shared T_e of the members.
func (fl *Fleet) ExpiryHorizon() time.Duration { return fl.limiters[0].ExpiryHorizon() }

// Stats sums the per-member activity counters.
func (fl *Fleet) Stats() Stats { return fl.limiters.stats() }
