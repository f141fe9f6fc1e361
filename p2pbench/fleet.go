package main

import (
	"fmt"
	"time"

	"p2pbound"
	"p2pbound/internal/packet"
)

// fleetReplicas is the fleet size; fleetReadyRounds bounds the sync
// rounds set-up may take to make every member Ready.
const (
	fleetReplicas    = 2
	fleetReadyRounds = 64
)

// fleetWL is two replicas over the in-process loopback, as p2pboundd
// -peers runs them: every packet is decided per packet with
// ProcessOnReplica, and one Sync round (DigestEvery 1) follows every
// batch. Routing is asymmetric — each packet goes to the member owning
// its source address, so outbound packets go by client and inbound by
// remote, and a reply usually lands on another member than its mark.
// P_d is pinned at 1, so an inbound pass is a filter match.
type fleetWL struct {
	// cfg is the member configuration of the timed replays, accCfg
	// that of the accuracy replay.
	cfg, accCfg p2pbound.Config
	pkts        []packet.Packet
	pub         []p2pbound.Packet
	member      []uint8
	ref         *reference
	lat         []float64
	// corrupt turns the first checked must-match verdict of the next
	// repetition into a drop (self-tests).
	corrupt bool
}

func prepareFleet(seed uint64, size float64, traced bool) (workload, error) {
	_, pkts, err := campusCapture(seed, size)
	if err != nil {
		return nil, err
	}
	ref, err := buildReference(pkts, 0, vectors, rotateEvery, true)
	if err != nil {
		return nil, err
	}
	w := &fleetWL{
		cfg:    limiterConfig(seed, defaultBits, pinnedLowMbps, pinnedHighMbps),
		accCfg: limiterConfig(seed, accuracyBits, pinnedLowMbps, pinnedHighMbps),
		pkts:   pkts,
		pub:    publicPackets(pkts),
		member: make([]uint8, len(pkts)),
		ref:    ref,
		lat:    make([]float64, 0, len(pkts)/batchSize+2),
	}
	for i := range pkts {
		w.member[i] = memberOf(pkts[i].Pair.SrcAddr)
	}
	return w, nil
}

// memberOf routes by source address.
func memberOf(a packet.Addr) uint8 {
	h := uint32(a) * 0x9e3779b1
	return uint8((h >> 16) % fleetReplicas)
}

func (w *fleetWL) rep(tr *tracer) (repOut, error) { return w.run(w.cfg, tr) }

func (w *fleetWL) accuracy() (repOut, error) { return w.run(w.accCfg, nil) }

func (w *fleetWL) setup() (func(), error) {
	_, err := buildFleet(w.cfg)
	return func() {}, err
}

// buildFleet builds the fleet and syncs it until every member is Ready.
func buildFleet(cfg p2pbound.Config) (*p2pbound.Fleet, error) {
	fl, err := p2pbound.NewFleet(cfg, p2pbound.FleetConfig{Replicas: fleetReplicas, DigestEvery: 1})
	if err != nil {
		return nil, err
	}
	for round := 0; !fleetReady(fl); round++ {
		if round == fleetReadyRounds {
			return nil, fmt.Errorf("fleet: not ready after %d sync rounds", round)
		}
		fl.Sync()
	}
	return fl, nil
}

// run is one repetition with every member configured by cfg.
func (w *fleetWL) run(cfg p2pbound.Config, tr *tracer) (repOut, error) {
	var out repOut
	mp := startMem()
	t0 := time.Now()
	fl, err := buildFleet(cfg)
	if err != nil {
		return out, err
	}
	out.setup = time.Since(t0)

	var (
		falsePos, unsol int64
		marked          [fleetReplicas]bool
	)
	cls, lastMark := w.ref.cls, w.ref.lastMark
	lat := w.lat[:0]
	start := time.Now()
	for lo := 0; lo < len(w.pkts); lo += batchSize {
		hi := min(lo+batchSize, len(w.pkts))
		tb := time.Now()
		for i := lo; i < hi; i++ {
			mem := w.member[i]
			v := fl.ProcessOnReplica(int(mem), w.pub[i])
			c := cls[i]
			if w.corrupt && c == mustMatch && lastMark[i] >= 0 && int(lastMark[i]) < lo {
				v, w.corrupt = p2pbound.Drop, false
			}
			if c == outbound {
				marked[mem] = true
				continue
			}
			if !marked[mem] {
				// No outbound bytes metered on this member yet: P_d is
				// still 0, so a pass says nothing about the filter.
				continue
			}
			if c == unsolicited {
				unsol++
				if v == p2pbound.Pass {
					falsePos++
				}
				continue
			}
			// A must-match reply whose latest mark was made on this
			// member, or in an earlier batch and so synced, may not
			// be dropped.
			if m := lastMark[i]; v == p2pbound.Drop && c == mustMatch && m >= 0 && (int(m) < lo || w.member[m] == mem) {
				out.fail(1, "fleet: packet %d dropped though its mark %d was synced", i, m)
			}
		}
		t := tr.span("fleet.process", tb, hi-lo)
		fl.Sync()
		tr.span("replica.sync", t, hi-lo)
		tr.span("fleet.batch", tb, hi-lo)
		lat = append(lat, float64(time.Since(tb))/1e3)
	}
	out.replay = time.Since(start)
	mp.stop(&out, fl)
	out.latencies = lat
	out.packets = int64(len(w.pkts))
	out.falsePos, out.unsolicited = falsePos, unsol

	st := fl.Stats()
	if decided := st.OutboundPackets + st.InboundPackets + st.Unroutable; decided != out.packets {
		out.fail(out.packets-decided, "fleet: members decided %d of %d packets", decided, out.packets)
	}
	var rejected int64
	for i := 0; i < fleetReplicas; i++ {
		rm := fl.ReplicaMetrics(i)
		rejected += rm.FramesRejected
		if tr != nil {
			tr.add("replica.delta_bytes", float64(rm.DeltaBytesSent))
			tr.add("replica.digest_frames", float64(rm.DigestFramesSent))
			tr.add("replica.repair_rounds", float64(rm.RepairRounds))
		}
	}
	if rejected != 0 {
		out.fail(rejected, "fleet: %d replication frames rejected on a lossless transport", rejected)
	}
	if tr != nil {
		tr.add("fleet.reps", 1)
		tr.add("replica.frames_rejected", float64(rejected))
	}
	return out, nil
}

func fleetReady(fl *p2pbound.Fleet) bool {
	for i := 0; i < fl.Replicas(); i++ {
		if !fl.Ready(i) {
			return false
		}
	}
	return true
}

// layers is the fleet part of the traced run: traced repetitions.
func (w *fleetWL) layers(tr *tracer, budget time.Duration) (tally, error) {
	var tl tally
	start := time.Now()
	for i := 0; i < 1 || time.Since(start) < budget; i++ {
		out, err := w.rep(tr)
		if err != nil {
			return tl, err
		}
		tl.add(out)
	}
	return tl, nil
}
