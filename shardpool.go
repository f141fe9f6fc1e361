package p2pbound

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"p2pbound/internal/metrics"
)

// shardBackend is what a front end (Pipeline, TenantPipeline) supplies
// to the shard-worker pool: where a packet queues, how a shard decides
// a batch, and what its worker does between batches and when idle.
type shardBackend interface {
	// route returns the shard ring pkt queues on. It runs on producer
	// goroutines.
	route(pkt Packet) int
	// decide decides one batch on shard sh, appending one verdict per
	// packet to dst. It runs only on shard sh's worker.
	decide(sh int, batch []Packet, dst []Decision) []Decision
	// betweenBatches runs on shard sh's worker after it decided its n-th
	// batch, before the batch is marked done (so a Drain covering the
	// batch also covers the hook), and once more with n = 0 as the
	// worker exits on Close.
	betweenBatches(sh, n int)
	// idle runs on shard sh's worker each time its ring runs dry while
	// the pool is open.
	idle(sh int)
}

// shardPool is the shard-worker pool under Pipeline and TenantPipeline:
// one worker goroutine per shard, each the single consumer of a
// fixed-capacity ring. Producers route packets to a ring with the
// backend's route; the worker drains its ring in batches through the
// backend's decide and publishes verdict counts. Because a shard is
// only ever decided on its own worker, per-shard state needs no locks.
//
// The exported methods are promoted to both front ends; name is the
// front end's type name, used in misuse panics.
type shardPool struct {
	be      shardBackend
	name    string
	rings   []*ring
	scratch sync.Pool // *routeScratch
	wg      sync.WaitGroup
	closed  atomic.Bool //p2p:atomic
	policy  ShedPolicy
	gate    <-chan struct{}

	// Verdict and shed counters are striped per shard (cache-line-padded
	// atomic cells), so concurrent shard workers never contend on a
	// counter cache line. Shed counts packets a full ring turned away by
	// policy; they were never decided and appear in no per-shard limiter
	// counter.
	passed      *metrics.Counter
	dropped     *metrics.Counter
	shedPassed  *metrics.Counter
	shedDropped *metrics.Counter
}

// start sizes the rings from pcfg (Shards must already be resolved;
// OffloadEvery is the Pipeline's business), registers the pool's
// telemetry when tel is non-nil, and starts one worker per shard.
// Close must be called to stop the workers.
func (sp *shardPool) start(be shardBackend, name string, pcfg PipelineConfig, tel *Telemetry) {
	shards := pcfg.Shards
	size := pcfg.RingSize
	if size == 0 {
		size = 2048
	}
	if size < 2 {
		size = 2
	}
	// Round up to a power of two so ring indices wrap with a mask.
	for size&(size-1) != 0 {
		size += size & -size
	}
	batch := pcfg.BatchSize
	if batch <= 0 {
		batch = 256
	}
	sp.be = be
	sp.name = name
	sp.rings = make([]*ring, shards)
	sp.policy = pcfg.OnOverload
	sp.gate = pcfg.testGate
	sp.passed = metrics.NewCounter(shards)
	sp.dropped = metrics.NewCounter(shards)
	sp.shedPassed = metrics.NewCounter(shards)
	sp.shedDropped = metrics.NewCounter(shards)
	if tel != nil {
		tel.attachPipeline(sp)
	}
	sp.scratch.New = func() any {
		sc := &routeScratch{byShard: make([][]Packet, shards)}
		for i := range sc.byShard {
			sc.byShard[i] = make([]Packet, 0, submitChunk)
		}
		return sc
	}
	for i := range sp.rings {
		sp.rings[i] = newRing(size)
	}
	sp.wg.Add(shards)
	for i := 0; i < shards; i++ {
		go sp.worker(i, batch)
	}
}

// Submit routes one packet to its shard ring. Under the default
// ShedBlock policy it blocks while the ring is full; under ShedFailOpen
// or ShedFailClosed a packet arriving at a full ring is shed by policy
// and counted instead of enqueued. It must not be called after Close.
func (sp *shardPool) Submit(pkt Packet) {
	if sp.closed.Load() {
		panic("p2pbound: Submit on closed " + sp.name)
	}
	sp.publish(sp.be.route(pkt), []Packet{pkt})
}

// TrySubmit attempts a non-blocking enqueue, regardless of the shed
// policy. It reports false when the shard ring is full, in which case
// the packet was not taken and nothing was counted — the caller owns the
// overflow decision (retry, spill to a secondary queue, apply its own
// verdict). It must not be called after Close.
func (sp *shardPool) TrySubmit(pkt Packet) bool {
	if sp.closed.Load() {
		panic("p2pbound: TrySubmit on closed " + sp.name)
	}
	r := sp.rings[sp.be.route(pkt)]
	r.mu.Lock()
	ok := r.tryPushAll([]Packet{pkt}) == 1
	r.mu.Unlock()
	return ok
}

// publish enqueues a group of packets bound for shard sh with one lock
// acquisition: under ShedBlock it waits for room, otherwise whatever
// does not fit is shed by policy.
func (sp *shardPool) publish(sh int, group []Packet) {
	r := sp.rings[sh]
	r.mu.Lock()
	if sp.policy == ShedBlock {
		r.pushAll(group)
		r.mu.Unlock()
		return
	}
	accepted := r.tryPushAll(group)
	r.mu.Unlock()
	sp.shed(sh, len(group)-accepted)
}

// shed records n packets bound for shard sh turned away by the overload
// policy.
func (sp *shardPool) shed(sh, n int) {
	if n <= 0 {
		return
	}
	if sp.policy == ShedFailOpen {
		sp.shedPassed.Add(sh, int64(n))
	} else {
		sp.shedDropped.Add(sh, int64(n))
	}
}

// submitChunk bounds the staging buffer SubmitBatch classifies into
// before publishing to the shard rings.
const submitChunk = 8192

// SubmitBatch routes a slice of packets. Instead of locking a ring per
// packet it classifies a chunk into per-shard staging buffers and then
// publishes each shard's group with one lock acquisition and one ring
// cursor update — the amortization that lets a single producer outrun
// several shard workers. Packets must be in non-decreasing timestamp
// order (per producer, as with Submit). Under a non-blocking shed
// policy, packets that do not fit a full shard ring are shed by policy
// and counted instead of enqueued. It must not be called after Close.
func (sp *shardPool) SubmitBatch(pkts []Packet) {
	if sp.closed.Load() {
		panic("p2pbound: SubmitBatch on closed " + sp.name)
	}
	sc := sp.scratch.Get().(*routeScratch)
	for len(pkts) > 0 {
		n := len(pkts)
		if n > submitChunk {
			n = submitChunk
		}
		chunk := pkts[:n]
		pkts = pkts[n:]
		for i := range sc.byShard {
			sc.byShard[i] = sc.byShard[i][:0]
		}
		for i := range chunk {
			sh := sp.be.route(chunk[i])
			sc.byShard[sh] = append(sc.byShard[sh], chunk[i])
		}
		for sh, group := range sc.byShard {
			if len(group) > 0 {
				sp.publish(sh, group)
			}
		}
	}
	sp.scratch.Put(sc)
}

// routeScratch is the reusable per-SubmitBatch staging area, pooled so
// steady-state batch submission does not allocate.
type routeScratch struct {
	byShard [][]Packet
}

// Drain blocks until every packet submitted before the call has been
// decided. Concurrent Submits are allowed; packets submitted while Drain
// is waiting may or may not be covered.
func (sp *shardPool) Drain() {
	for _, r := range sp.rings {
		target := r.tail.Load()
		for spin := 0; r.done.Load() < target; spin++ {
			idleWait(spin)
		}
	}
}

// Close drains the rings, stops every worker, and waits for them to
// exit. No Submit or SubmitBatch may be issued after (or concurrently
// with) Close. Close is idempotent.
func (sp *shardPool) Close() {
	sp.closed.Store(true)
	sp.wg.Wait()
}

// Verdicts returns the number of passed and dropped packets decided so
// far. Shed packets were never decided and are reported separately by
// Shed. It is safe to call at any time, including concurrently with
// submission.
func (sp *shardPool) Verdicts() (passed, dropped int64) {
	return sp.passed.Value(), sp.dropped.Value()
}

// Shed returns the number of packets turned away undecided by the
// overload policy: fail-open sheds count as passed, fail-closed sheds as
// dropped. Both are zero under ShedBlock. Safe to call at any time.
func (sp *shardPool) Shed() (passed, dropped int64) {
	return sp.shedPassed.Value(), sp.shedDropped.Value()
}

// worker owns shard sh: it drains the shard ring in batches, decides
// them through the backend, runs the backend's between-batch and idle
// hooks, and publishes verdict counts. The `done` cursor advances only
// after the batch is decided, which is what Drain synchronizes on.
//
//p2p:confined pipeworker
func (sp *shardPool) worker(sh int, batchSize int) {
	defer sp.wg.Done()
	if sp.gate != nil {
		<-sp.gate
	}
	r := sp.rings[sh]
	batch := make([]Packet, 0, batchSize)
	verdicts := make([]Decision, 0, batchSize)
	spin, batches := 0, 0
	for {
		batch = r.take(batch[:0], batchSize)
		if len(batch) == 0 {
			if sp.closed.Load() {
				// Re-check after observing closed: any Submit that
				// returned before Close is visible to this take.
				if batch = r.take(batch[:0], batchSize); len(batch) == 0 {
					sp.be.betweenBatches(sh, 0)
					return
				}
			} else {
				if spin == 0 {
					sp.be.idle(sh)
				}
				idleWait(spin)
				spin++
				continue
			}
		}
		spin = 0
		verdicts = sp.be.decide(sh, batch, verdicts[:0])
		batches++
		sp.be.betweenBatches(sh, batches)
		var pass, drop int64
		for _, v := range verdicts {
			if v == Pass {
				pass++
			} else {
				drop++
			}
		}
		sp.passed.Add(sh, pass)
		sp.dropped.Add(sh, drop)
		r.done.Add(uint64(len(batch)))
	}
}

// ring is a fixed-capacity single-consumer packet queue. The consumer
// side is lock-free; the producer side is serialized by mu (uncontended
// in the common single-producer deployment). tail is the next slot to
// write, head the next to read, done the count of decided packets.
type ring struct {
	buf  []Packet
	mask uint64
	mu   sync.Mutex

	// The three cursors live on separate cache lines so the producer's
	// tail stores do not false-share with the consumer's head/done.
	tail atomic.Uint64 //p2p:atomic
	_    [7]uint64
	head atomic.Uint64 //p2p:atomic
	_    [7]uint64
	done atomic.Uint64 //p2p:atomic
}

func newRing(size int) *ring {
	return &ring{
		buf:  make([]Packet, size),
		mask: uint64(size - 1),
	}
}

// tryPushAll appends as much of the group as fits without waiting and
// returns the count accepted; the caller sheds the remainder. Callers
// hold r.mu.
func (r *ring) tryPushAll(pkts []Packet) int {
	t := r.tail.Load()
	free := uint64(len(r.buf)) - (t - r.head.Load())
	n := uint64(len(pkts))
	if n > free {
		n = free
	}
	for i := uint64(0); i < n; i++ {
		r.buf[(t+i)&r.mask] = pkts[i]
	}
	if n > 0 {
		r.tail.Store(t + n)
	}
	return int(n)
}

// pushAll appends a group of packets, publishing the tail cursor once
// per contiguous free span instead of once per packet. When the group
// exceeds the free space it publishes what fits and waits for the
// consumer, so oversized groups drain incrementally rather than
// deadlocking. Callers hold r.mu.
func (r *ring) pushAll(pkts []Packet) {
	t := r.tail.Load()
	for len(pkts) > 0 {
		free := uint64(len(r.buf)) - (t - r.head.Load())
		for spin := 0; free == 0; spin++ {
			idleWait(spin)
			free = uint64(len(r.buf)) - (t - r.head.Load())
		}
		n := uint64(len(pkts))
		if n > free {
			n = free
		}
		for i := uint64(0); i < n; i++ {
			r.buf[(t+i)&r.mask] = pkts[i]
		}
		t += n
		r.tail.Store(t)
		pkts = pkts[n:]
	}
}

// take moves up to max available packets into dst. Only the consumer
// goroutine (a shard worker) may call it. Slots are released (head
// advanced) as soon as the packets are copied out; completion is
// published separately via done.
//
//p2p:confined pipeworker
func (r *ring) take(dst []Packet, max int) []Packet {
	h := r.head.Load()
	avail := r.tail.Load() - h
	if avail == 0 {
		return dst
	}
	if avail > uint64(max) {
		avail = uint64(max)
	}
	// The span wraps the ring at most once, so two bulk copies replace
	// the per-packet masked loop — memmove keeps the drain cost per
	// packet flat as BatchSize grows.
	lo := h & r.mask
	n := uint64(len(r.buf)) - lo
	if n > avail {
		n = avail
	}
	dst = append(dst, r.buf[lo:lo+n]...)
	dst = append(dst, r.buf[:avail-n]...)
	r.head.Store(h + avail)
	return dst
}

// idleWait is the shared backoff: yield the processor for a while, then
// sleep briefly so an idle pipeline does not burn a core.
func idleWait(spin int) {
	if spin < 128 {
		runtime.Gosched()
		return
	}
	time.Sleep(20 * time.Microsecond)
}
