package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net/netip"
	"time"

	"p2pbound"
	"p2pbound/internal/ingest"
	"p2pbound/internal/packet"
	"p2pbound/internal/pcap"
	"p2pbound/internal/trace"
)

// Input geometry shared by the workloads built on the campus model.
const (
	// campusDuration at campusScale of the paper's load renders about
	// 650k packets at ≈53 Mbps of uplink.
	campusDuration = 80 * time.Second
	campusScale    = 0.5
	// warmDuration is the head of the capture a previous daemon run
	// already decided; campus and isp restore its saved state.
	warmDuration = 10 * time.Second
	// batchSize is the p2pboundd ingest batch.
	batchSize = 512
	// snaplen keeps the rendered capture header-sized, as a header
	// trace would be.
	snaplen = 96

	// Filter geometry: k = 4 vectors rotated every Δt = 5 s (the
	// paper's T_e = 20 s) with m = 3 hashes. Timed replays keep the
	// limiter's default vector size (2^20 bits, a 512 KiB filter), as a
	// deployment does. On this trace such a filter runs nearly empty,
	// and its false positives are too few to resolve, so fpr comes from
	// an untimed accuracy pass over the same packets with
	// 2^accuracyBits-bit vectors at ≈55% fill: there a change in
	// hashing or layout moves the false-positive count by hundreds of
	// packets per replay.
	vectors      = 4
	rotateEvery  = 5 * time.Second
	hashFuncs    = 3
	defaultBits  = 0
	accuracyBits = 13
)

var campusNet = packet.CIDR(packet.AddrFrom4(140, 112, 0, 0), 16)

// lastCapture keeps the most recent campus capture: the traced run
// prepares three workloads from the same one. Workloads only read it.
var lastCapture struct {
	seed    uint64
	size    float64
	capture []byte
	pkts    []packet.Packet
}

// campusCapture generates the campus trace for seed, renders it to pcap
// bytes and decodes it back, so the decoded packets carry exactly the
// timestamps (µs resolution) the ingest tier produces.
func campusCapture(seed uint64, size float64) (capture []byte, pkts []packet.Packet, err error) {
	if c := &lastCapture; c.capture != nil && c.seed == seed && c.size == size {
		return c.capture, c.pkts, nil
	}
	cfg := trace.DefaultConfig(scaled(campusDuration, size), campusScale, seed)
	tr, err := trace.Generate(cfg)
	if err != nil {
		return nil, nil, err
	}
	var buf bytes.Buffer
	if err := pcap.WriteAll(&buf, tr.Packets, snaplen, time.Unix(1_700_000_000, 0)); err != nil {
		return nil, nil, err
	}
	capture = buf.Bytes()
	pkts, err = decodeAll(capture, campusNet)
	if err != nil {
		return nil, nil, err
	}
	if len(pkts) != len(tr.Packets) {
		return nil, nil, fmt.Errorf("capture decodes %d of %d packets", len(pkts), len(tr.Packets))
	}
	lastCapture.seed, lastCapture.size, lastCapture.capture, lastCapture.pkts = seed, size, capture, pkts
	return capture, pkts, nil
}

// decodeAll reads every packet of an in-memory capture through the
// ingest tier, payloads dropped.
func decodeAll(capture []byte, clientNet packet.Network) ([]packet.Packet, error) {
	src, err := ingest.NewMemSource(capture, clientNet, false)
	if err != nil {
		return nil, err
	}
	b := ingest.NewBatch(batchSize)
	var out []packet.Packet
	for {
		n, err := src.ReadBatch(b)
		for i := 0; i < n; i++ {
			p := b.Pkts[i]
			p.Payload = nil
			out = append(out, p)
		}
		if errors.Is(err, io.EOF) {
			return out, nil
		}
		if err != nil {
			return nil, err
		}
	}
}

func scaled(d time.Duration, size float64) time.Duration {
	return time.Duration(float64(d) * size)
}

// firstAt returns the index of the first packet at or after ts.
func firstAt(pkts []packet.Packet, ts time.Duration) int {
	for i := range pkts {
		if pkts[i].TS >= ts {
			return i
		}
	}
	return len(pkts)
}

// meanUplinkMbps is the mean outbound rate of pkts over their span.
func meanUplinkMbps(pkts []packet.Packet) float64 {
	if len(pkts) < 2 {
		return 1
	}
	var bytes int64
	for i := range pkts {
		if pkts[i].Dir == packet.Outbound {
			bytes += int64(pkts[i].Len)
		}
	}
	span := (pkts[len(pkts)-1].TS - pkts[0].TS).Seconds()
	if span <= 0 || bytes == 0 {
		return 1
	}
	return float64(bytes) * 8 / span / 1e6
}

// publicPacket converts a decoded packet to the library's packet type,
// as p2pboundd does for every ingest batch.
func publicPacket(p *packet.Packet) p2pbound.Packet {
	return p2pbound.Packet{
		Timestamp: p.TS,
		Protocol:  p2pbound.Protocol(p.Pair.Proto),
		SrcAddr:   toNetip(p.Pair.SrcAddr),
		SrcPort:   p.Pair.SrcPort,
		DstAddr:   toNetip(p.Pair.DstAddr),
		DstPort:   p.Pair.DstPort,
		Size:      p.Len,
	}
}

func publicPackets(pkts []packet.Packet) []p2pbound.Packet {
	out := make([]p2pbound.Packet, len(pkts))
	for i := range pkts {
		out[i] = publicPacket(&pkts[i])
	}
	return out
}

func toNetip(a packet.Addr) netip.Addr {
	return netip.AddrFrom4([4]byte{byte(a >> 24), byte(a >> 16), byte(a >> 8), byte(a)})
}

// limiterConfig is the campus-model limiter: the shared geometry with
// 2^bits-bit vectors (defaultBits for the limiter's default) and the
// given RED thresholds.
func limiterConfig(seed uint64, bits uint, lowMbps, highMbps float64) p2pbound.Config {
	return p2pbound.Config{
		ClientNetwork: campusNet.String(),
		LowMbps:       lowMbps,
		HighMbps:      highMbps,
		Vectors:       vectors,
		VectorBits:    bits,
		HashFunctions: hashFuncs,
		RotateEvery:   rotateEvery,
		Seed:          seed,
	}
}

// pinnedPd is a threshold pair that puts P_d at 1 as soon as any
// outbound byte is in the meter window, so drops depend on filter
// state alone.
const pinnedLowMbps, pinnedHighMbps = 0, 1e-6

// decideCampus runs pkts through a fresh limiter in batches and returns
// it, for warm-up state and sequential references.
func decideCampus(cfg p2pbound.Config, pkts []packet.Packet) (*p2pbound.Limiter, []p2pbound.Decision, error) {
	lim, err := p2pbound.New(cfg)
	if err != nil {
		return nil, nil, err
	}
	pub := publicPackets(pkts)
	verdicts := make([]p2pbound.Decision, 0, len(pub))
	for lo := 0; lo < len(pub); lo += batchSize {
		hi := min(lo+batchSize, len(pub))
		verdicts = lim.ProcessBatch(pub[lo:hi], verdicts)
	}
	return lim, verdicts, nil
}
