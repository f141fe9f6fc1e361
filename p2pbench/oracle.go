package main

import (
	"fmt"
	"time"

	"p2pbound/internal/naive"
	"p2pbound/internal/packet"
)

// class is the reference's verdict on one packet of the timed replay.
type class uint8

const (
	// outbound packets are always passed and mark their flow.
	outbound class = iota
	// mustMatch: inbound, and the exact timer table at T_e − Δt holds
	// the flow's mark. The bitmap keeps every mark for at least
	// (k−1)·Δt = T_e − Δt, so it must match: dropping it is a false
	// negative.
	mustMatch
	// mayMatch: inbound, marked within T_e but not within T_e − Δt, and
	// still inside the mark's rotation horizon — the end of the k-th
	// rotation period after the mark, where the bitmap forgets it. The
	// bitmap matches it by construction.
	mayMatch
	// unsolicited: inbound with no mark inside its rotation horizon. A
	// match is a false positive.
	unsolicited
)

// reference classifies every packet of a replay. It is built once per
// seed, outside set-up and timing, from the exact timer table
// (internal/naive) that the bitmap approximates.
type reference struct {
	cls []class
	// lastMark[i] is the trace index of the latest outbound packet of
	// the inbound packet i's flow, or −1; only the fleet check needs it.
	lastMark []int32

	// designed counts mustMatch + mayMatch: the inbound packets a
	// correct bitmap matches whatever its hash collisions.
	designed int64
	// unsolicited counts the rest of the inbound packets.
	unsolicited int64
}

// buildReference classifies pkts[from:]; pkts[:from] only contribute
// marks (the warm-up a restored state carries). k and dt are the
// bitmap's vector count and rotation period.
func buildReference(pkts []packet.Packet, from int, k int, dt time.Duration, keepMarks bool) (*reference, error) {
	if k < 2 {
		return nil, fmt.Errorf("oracle: need k >= 2, got %d", k)
	}
	te := time.Duration(k) * dt
	exact, err := naive.New(te, false, 0)
	if err != nil {
		return nil, err
	}
	guaranteed, err := naive.New(te-dt, false, 0)
	if err != nil {
		return nil, err
	}
	ref := &reference{cls: make([]class, len(pkts)-from)}
	if keepMarks {
		ref.lastMark = make([]int32, len(pkts)-from)
	}
	last := make(map[packet.SocketPair]int32, 1<<16)
	for i := range pkts {
		p := &pkts[i]
		exact.Advance(p.TS)
		guaranteed.Advance(p.TS)
		if p.Dir == packet.Outbound {
			exact.Process(p, 0)
			guaranteed.Process(p, 0)
			last[p.Pair] = int32(i)
			if i >= from {
				ref.cls[i-from] = outbound
			}
			continue
		}
		if i < from {
			continue
		}
		mark, marked := last[p.Pair.Inverse()]
		if !marked {
			mark = -1
		}
		if keepMarks {
			ref.lastMark[i-from] = mark
		}
		inTe := exact.Contains(p.Pair, p.TS)
		var c class
		switch {
		case guaranteed.Contains(p.Pair, p.TS):
			c = mustMatch
		case marked && p.TS < rotationHorizon(pkts[mark].TS, k, dt):
			c = mayMatch
		default:
			c = unsolicited
		}
		if c != unsolicited && !inTe {
			return nil, fmt.Errorf("oracle: packet %d is %v yet outside T_e", i, c)
		}
		ref.cls[i-from] = c
		if c == unsolicited {
			ref.unsolicited++
		} else {
			ref.designed++
		}
	}
	return ref, nil
}

// rotationHorizon is the instant a mark made at ts leaves the bitmap:
// rotation periods are aligned to multiples of dt, and the vector that
// becomes current k periods after the mark's period was cleared after
// the mark.
func rotationHorizon(ts time.Duration, k int, dt time.Duration) time.Duration {
	return (ts/dt + time.Duration(k)) * dt
}

func (c class) String() string {
	switch c {
	case outbound:
		return "outbound"
	case mustMatch:
		return "must-match"
	case mayMatch:
		return "may-match"
	default:
		return "unsolicited"
	}
}

// accuracy folds a replay's matched-inbound count into the false
// positive figures: every designed packet is matched, so any surplus is
// false positives, and any shortfall is false negatives.
func (r *reference) accuracy(matched int64) (falsePos, falseNeg int64) {
	if matched >= r.designed {
		return matched - r.designed, 0
	}
	return 0, r.designed - matched
}
