package p2pbound

import (
	"strings"
	"testing"
	"time"
)

// TestTenantPipelineAddTenantsConcurrent: a packet queued on shard 0
// before its subscriber was registered on shard 1 is decided by worker
// 0 as a no-tenant drop; it must never reach the new tenant, whose
// shard 1 worker is deciding the packets submitted after the
// registration at the same time. Run under -race this also checks that
// AddTenants may overlap running workers.
func TestTenantPipelineAddTenantsConcurrent(t *testing.T) {
	// Tenant i lands on shard i%2, so tenant 0 and tenant 2 live on
	// shard 0 and tenant 1 on shard 1.
	m := newTestManager(t, 1, func(c *TenantManagerConfig) { c.Shards = 2 })
	gate := make(chan struct{})
	p := NewTenantPipeline(m, TenantPipelineConfig{RingSize: 256, testGate: gate})
	const n = 64
	burst := func(tenant int, from time.Duration) []Packet {
		pkts := make([]Packet, n)
		for i := range pkts {
			pkts[i] = tenantOutbound(tenant, i, from+time.Duration(i)*time.Millisecond)
		}
		return pkts
	}
	p.SubmitBatch(burst(1, 0)) // no tenant yet: carried to shard 0
	if err := m.AddTenant(TenantConfig{ID: tenantID24(1), Network: tenantNet24(1)}); err != nil {
		t.Fatal(err)
	}
	p.SubmitBatch(burst(1, n*time.Millisecond)) // now routed to shard 1
	close(gate)
	// Register tenant 2 while worker 0 is busy with the no-tenant burst.
	if err := m.AddTenant(TenantConfig{ID: tenantID24(2), Network: tenantNet24(2)}); err != nil {
		t.Fatal(err)
	}
	p.SubmitBatch(burst(2, 2*n*time.Millisecond))
	p.Drain()
	p.Close()

	if passed, dropped := p.Verdicts(); passed != 2*n || dropped != n {
		t.Fatalf("verdicts = %d pass, %d drop; want %d pass, %d drop", passed, dropped, 2*n, n)
	}
	if s := m.Stats(); s.NoTenant != n {
		t.Fatalf("NoTenant = %d, want the %d packets queued before AddTenant", s.NoTenant, n)
	}
	for _, id := range []string{tenantID24(1), tenantID24(2)} {
		s, ok := m.TenantStats(id)
		if !ok || s.OutboundPackets != n {
			t.Fatalf("tenant %s decided %d outbound packets, want %d", id, s.OutboundPackets, n)
		}
	}
}

// TestTenantPipelineShed saturates a gated single-shard tenant pipeline
// and verifies that overflow degrades by the configured policy —
// counted, undecided, and without deadlocking the producer.
func TestTenantPipelineShed(t *testing.T) {
	const ringSize, total = 64, 256
	for _, policy := range []ShedPolicy{ShedFailOpen, ShedFailClosed} {
		t.Run(policy.String(), func(t *testing.T) {
			m := newTestManager(t, 2, nil)
			gate := make(chan struct{})
			p := NewTenantPipeline(m, TenantPipelineConfig{RingSize: ringSize, OnOverload: policy, testGate: gate})
			pkts := make([]Packet, 0, total)
			for i := 0; len(pkts) < total; i++ {
				ts := time.Duration(i) * time.Millisecond
				pkts = append(pkts, tenantOutbound(i%2, i, ts), tenantInbound(i%2, i+1, ts))
			}
			// Workers are gated, so exactly ringSize packets fit and the
			// rest must shed — Submit never blocks.
			doneSubmitting := make(chan struct{})
			go func() {
				defer close(doneSubmitting)
				p.SubmitBatch(pkts[:total/2])
				for _, pkt := range pkts[total/2:] {
					p.Submit(pkt)
				}
			}()
			select {
			case <-doneSubmitting:
			case <-time.After(10 * time.Second):
				t.Fatal("submission deadlocked against a saturated ring")
			}
			shedPassed, shedDropped := p.Shed()
			if shed := shedPassed + shedDropped; shed != total-ringSize {
				t.Fatalf("expected %d shed, got %d", total-ringSize, shed)
			}
			if policy == ShedFailOpen && shedDropped != 0 {
				t.Fatalf("fail-open shed counted as dropped: %d", shedDropped)
			}
			if policy == ShedFailClosed && shedPassed != 0 {
				t.Fatalf("fail-closed shed counted as passed: %d", shedPassed)
			}
			close(gate)
			p.Drain()
			p.Close()
			passed, dropped := p.Verdicts()
			if passed+dropped != ringSize {
				t.Fatalf("decided %d, expected the %d ring-buffered packets", passed+dropped, ringSize)
			}
			if got := passed + dropped + shedPassed + shedDropped; got != total {
				t.Fatalf("verdicts plus sheds = %d, want the %d submitted packets", got, total)
			}
			var decided int64
			for _, id := range m.TenantIDs() {
				s, _ := m.TenantStats(id)
				decided += s.OutboundPackets + s.InboundPackets
			}
			if decided != ringSize {
				t.Fatalf("tenant limiters decided %d packets, want %d", decided, ringSize)
			}
		})
	}
}

// TestTenantPipelineGoldenMetrics: a TenantPipeline registers the same
// verdict and shed series as a Pipeline, under the next pipeline label
// of the shared telemetry root.
func TestTenantPipelineGoldenMetrics(t *testing.T) {
	const ringSize = 4
	const total = 32
	tel := NewTelemetry()
	cfg := goldenConfig()
	cfg.Telemetry = tel
	first, err := NewPipeline(cfg, PipelineConfig{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	first.Close()

	m := newTestManager(t, 1, func(c *TenantManagerConfig) { c.Telemetry = tel })
	gate := make(chan struct{})
	p := NewTenantPipeline(m, TenantPipelineConfig{
		RingSize:   ringSize,
		OnOverload: ShedFailClosed,
		testGate:   gate,
	})
	for i := 0; i < total; i++ {
		p.Submit(tenantOutbound(0, i, time.Duration(i)*time.Millisecond))
	}
	close(gate)
	p.Drain()
	p.Close()

	var b strings.Builder
	if err := tel.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, line := range []string{
		`p2pbound_pipeline_verdicts_total{verdict="pass",pipeline="0"} 0`,
		`p2pbound_pipeline_shed_total{verdict="drop",pipeline="0"} 0`,
		`p2pbound_pipeline_verdicts_total{verdict="pass",pipeline="1"} 4`,
		`p2pbound_pipeline_verdicts_total{verdict="drop",pipeline="1"} 0`,
		`p2pbound_pipeline_shed_total{verdict="pass",pipeline="1"} 0`,
		`p2pbound_pipeline_shed_total{verdict="drop",pipeline="1"} 28`,
	} {
		if !strings.Contains(out, line+"\n") {
			t.Errorf("exposition missing %q\nfull exposition:\n%s", line, out)
		}
	}
}
