package main

import (
	"fmt"
	"math"
	"sort"

	"sdimm/internal/serve"
)

// outcome is what the generator observed for one op. Times are
// nanoseconds from the start of the window; recv < 0 means no response
// arrived.
type outcome struct {
	sent, recv int64
	status     byte
	// For OK reads: the (addr, seq) the returned payload names, and
	// whether it decoded as a payload this benchmark wrote.
	gotAddr, gotSeq uint64
	gotValid        bool
}

// answered reports whether a response arrived.
func (o outcome) answered() bool { return o.recv >= 0 }

// history indexes a run's writes per address for the read check.
type history struct {
	ops []op
	out []outcome
	// acked holds, per address, the OK writes sorted by ack time, with
	// frontier[i] the latest send time among acked[0..i].
	acked    map[uint64][]int
	frontier map[uint64][]int64
}

func newHistory(ops []op, out []outcome) *history {
	h := &history{ops: ops, out: out, acked: map[uint64][]int{}, frontier: map[uint64][]int64{}}
	for i, o := range ops {
		if o.write && out[i].answered() && out[i].status == serve.StatusOK {
			h.acked[o.addr] = append(h.acked[o.addr], i)
		}
	}
	for a, idx := range h.acked {
		sort.Slice(idx, func(x, y int) bool { return out[idx[x]].recv < out[idx[y]].recv })
		f := make([]int64, len(idx))
		var m int64 = math.MinInt64
		for k, i := range idx {
			m = max(m, out[i].sent)
			f[k] = m
		}
		h.frontier[a] = f
	}
	return h
}

// checkRead verifies one OK read i. The value must be the preload or a
// write to the same address that (1) was sent before the read's response
// arrived, (2) was not refused, and (3) is not stale: no OK write to the
// address was both sent after the returned write was acknowledged and
// acknowledged before the read was sent. That is "the last write
// acknowledged before the read was sent, or a write in flight at the same
// time" — a register's linearizability condition.
func (h *history) checkRead(i int) error {
	r, ro := h.ops[i], h.out[i]
	if !ro.gotValid {
		return fmt.Errorf("read %d of addr %d: payload was not written by this run", i, r.addr)
	}
	if ro.gotAddr != r.addr {
		return fmt.Errorf("read %d of addr %d: returned the block of addr %d", i, r.addr, ro.gotAddr)
	}
	wAck := int64(math.MinInt64) // the preload was acknowledged before the window
	if ro.gotSeq > 0 {
		w := int(ro.gotSeq - 1)
		if w >= len(h.ops) || !h.ops[w].write || h.ops[w].addr != r.addr {
			return fmt.Errorf("read %d of addr %d: returned seq %d, which is no write to that addr", i, r.addr, ro.gotSeq)
		}
		wo := h.out[w]
		if wo.sent < 0 || wo.sent >= ro.recv {
			return fmt.Errorf("read %d of addr %d: returned write %d, sent after the read completed", i, r.addr, w)
		}
		if wo.answered() && refused(wo.status) {
			return fmt.Errorf("read %d of addr %d: returned write %d, which the server refused (%s)",
				i, r.addr, w, serve.StatusString(wo.status))
		}
		wAck = math.MaxInt64 // unanswered or failed: in flight until the end
		if wo.answered() && wo.status == serve.StatusOK {
			wAck = wo.recv
		}
	}
	// Latest send time among OK writes acknowledged before the read was sent.
	idx, f := h.acked[r.addr], h.frontier[r.addr]
	k := sort.Search(len(idx), func(k int) bool { return h.out[idx[k]].recv >= ro.sent })
	if k > 0 && f[k-1] > wAck {
		return fmt.Errorf("read %d of addr %d: stale value (seq %d) — a later write was acknowledged before the read was sent",
			i, r.addr, ro.gotSeq)
	}
	return nil
}

// refused reports statuses under which the server never executed the op.
// StatusDeadline counts as refused because the run separately requires
// AcceptedDeadlineMissed == 0: every deadline answer was a refusal.
func refused(status byte) bool {
	return status == serve.StatusShed || status == serve.StatusDeadline || status == serve.StatusClosing
}

// checkReads runs checkRead over every OK read and returns the violations.
func checkReads(ops []op, out []outcome) []error {
	h := newHistory(ops, out)
	var errs []error
	for i, o := range ops {
		if !o.write && out[i].answered() && out[i].status == serve.StatusOK {
			if err := h.checkRead(i); err != nil {
				errs = append(errs, err)
			}
		}
	}
	return errs
}

// minBeyond is how many samples must lie beyond a percentile before it is
// reported: a percentile with fewer is one or two outliers, not a tail.
const minBeyond = 10

// percentile returns the nearest-rank q-quantile of sorted samples, and
// false when fewer than minBeyond samples lie beyond it.
func percentile(sorted []float64, q float64) (float64, bool) {
	n := len(sorted)
	if n == 0 {
		return 0, false
	}
	rank := int(math.Ceil(q * float64(n)))
	rank = min(max(rank, 1), n)
	if n-rank < minBeyond {
		return 0, false
	}
	return sorted[rank-1], true
}

// median returns the middle of xs (the mean of the middle two for an even
// count); xs is sorted in place.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}
