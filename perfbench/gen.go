package main

import (
	"encoding/binary"
	"slices"
	"time"

	"sdimm/internal/queueing"
	"sdimm/internal/rng"
)

// op is one request of a serve workload's op stream.
type op struct {
	at    time.Duration // intended send time, from the start of the window
	addr  uint64
	write bool
}

// schedule builds the op stream a serve workload offers over dur: arrival
// times from the workload's arrival process and addresses and kinds from
// its mix. It is a pure function of (spec, seed, dur) — arrivals and the
// op mix draw from separate named streams, so changing one never shifts
// the other.
func schedule(spec serveSpec, seed uint64, dur time.Duration) []op {
	var times []time.Duration
	if spec.mmpp != nil {
		times = mmppArrivals(*spec.mmpp, spec.slot, dur, rng.Stream(seed, "perfbench.arrivals."+spec.name, 0))
	} else {
		times = poissonArrivals(spec.rate, dur, rng.Stream(seed, "perfbench.arrivals."+spec.name, 0))
	}
	mix := rng.Stream(seed, "perfbench.ops."+spec.name, 0)
	ops := make([]op, len(times))
	for i, t := range times {
		o := op{at: t, write: mix.Bool(spec.writeFrac)}
		if spec.hotSet > 0 && mix.Bool(spec.hotFrac) {
			o.addr = mix.Uint64n(spec.hotSet)
		} else {
			o.addr = spec.hotSet + mix.Uint64n(spec.space-spec.hotSet)
		}
		ops[i] = o
	}
	return ops
}

// poissonArrivals places exactly rate×dur arrivals uniformly at random in
// [0, dur) — a Poisson process conditioned on its count. Fixing the count
// keeps the offered load identical across seeds, so goodput differs only
// by what the server did with it.
func poissonArrivals(rate float64, dur time.Duration, r *rng.Source) []time.Duration {
	out := make([]time.Duration, int(rate*dur.Seconds()))
	for i := range out {
		out[i] = time.Duration(r.Float64() * float64(dur))
	}
	slices.Sort(out)
	return out
}

// mmppArrivals runs the two-state Markov-modulated Bernoulli process slot
// by slot: each slot emits at most one arrival, placed uniformly inside the
// slot, then the state flips with PUp or PDown. The initial state is drawn
// from the stationary distribution so the realised mean rate is the
// configured MeanRate from the first slot.
func mmppArrivals(m queueing.MMPP, slot, dur time.Duration, r *rng.Source) []time.Duration {
	slots := int(dur / slot)
	out := make([]time.Duration, 0, int(m.MeanRate()*float64(slots)*1.1))
	high := r.Bool(m.PUp / (m.PUp + m.PDown))
	for s := 0; s < slots; s++ {
		p := m.LowRate
		if high {
			p = m.HighRate
		}
		if r.Bool(p) {
			out = append(out, time.Duration(s)*slot+time.Duration(r.Float64()*float64(slot)))
		}
		if high {
			high = !r.Bool(m.PDown)
		} else {
			high = r.Bool(m.PUp)
		}
	}
	return out
}

// Payload layout: every written block carries the address it was written
// to, the write's sequence number (its op index + 1; 0 is the preload),
// and a tag derived from both, so a read can name exactly which write it
// returned and detect a block from another address or a torn payload.
const payloadHeader = 24

func payloadTag(addr, seq uint64) uint64 {
	st := addr*0x9e3779b97f4a7c15 ^ seq
	return rng.SplitMix64(&st)
}

// encodePayload fills a block-sized payload for write seq to addr.
func encodePayload(blockSize int, addr, seq uint64) []byte {
	b := make([]byte, blockSize)
	binary.BigEndian.PutUint64(b[0:], addr)
	binary.BigEndian.PutUint64(b[8:], seq)
	tag := payloadTag(addr, seq)
	binary.BigEndian.PutUint64(b[16:], tag)
	for i := payloadHeader; i < blockSize; i++ {
		b[i] = byte(tag >> (8 * (i % 8)))
	}
	return b
}

// decodePayload recovers (addr, seq) from a read payload; ok is false for
// a payload that no write of this benchmark produced.
func decodePayload(b []byte) (addr, seq uint64, ok bool) {
	if len(b) < payloadHeader {
		return 0, 0, false
	}
	addr = binary.BigEndian.Uint64(b[0:])
	seq = binary.BigEndian.Uint64(b[8:])
	tag := payloadTag(addr, seq)
	if binary.BigEndian.Uint64(b[16:]) != tag {
		return 0, 0, false
	}
	for i := payloadHeader; i < len(b); i++ {
		if b[i] != byte(tag>>(8*(i%8))) {
			return 0, 0, false
		}
	}
	return addr, seq, true
}
