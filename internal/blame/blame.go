// Package blame is the wave-level critical-path profiler for the overlapped
// cluster pipeline. The coordinator records every loop iteration as a
// contiguous sequence of phase intervals — each phase starts exactly where
// the previous one ended, so the intervals tile the iteration's wall-clock
// with nothing left over. Because waves overlap (wave N retires while wave
// N+1's path reads run), a phase interval alone no longer says whether the
// workers were idle; the collector therefore also keeps a live count of
// in-flight worker tasks and meters the wall-clock during which that count
// is zero. Folding that all-idle meter against the phase boundaries yields
// the serialization ledger: for each phase, how much wall-clock the pipeline
// measurably spent with every worker idle. That ledger is the
// machine-readable explanation of the parallel engine's speedup curve — if
// "commit" and "dispatch" dominate it, adding workers cannot help, because
// the coordinator is the bottleneck.
//
// The collector is deliberately invisible to the determinism-equivalence
// suites: it draws no randomness, touches no telemetry registry, and its
// phase boundaries are wall-clock reads that never feed back into
// scheduling. Attaching or detaching a collector cannot change a single bit
// of cluster state.
package blame

import (
	"sort"
	"sync"
	"time"
)

// Phase identifies one interval of a pipeline coordinator iteration. The
// phases are recorded in this order, and every iteration passes through all
// of them (an iteration that skips work — e.g. no previous wave to retire,
// or no checkpoint due — records zero-length intervals for the skipped
// phases, keeping the tiling exact).
type Phase uint8

const (
	// PhaseSchedule is coordinator-side admission for the next wave:
	// conflict screening against the in-flight wave, position-map lookups,
	// every shared-RNG leaf draw in logical order, and the ACCESS fan-out
	// submit. It overlaps the previous wave's APPEND broadcast on the
	// workers.
	PhaseSchedule Phase = iota
	// PhaseRetireWait is the overlap payoff window: the coordinator waits
	// for the previous wave's APPEND broadcast and its batched journal
	// append (a background goroutine) while the new wave's ACCESS
	// exchanges run on the workers.
	PhaseRetireWait
	// PhaseFinalize is the previous wave's retirement on the coordinator:
	// lost-append accounting, pooled re-homing, poison vetoes, and result
	// delivery.
	PhaseFinalize
	// PhaseAccessWait is the merge barrier: the coordinator waits for the
	// current wave's ACCESS exchanges. Position-map commits ride on the
	// workers inside this phase, so on a loaded pipeline it is worker-busy
	// time, not serialization.
	PhaseAccessWait
	// PhaseCommit is the coordinator's commit walk over the finished
	// ACCESS wave: journal record construction and decode-failure folding,
	// in logical order.
	PhaseCommit
	// PhaseDispatch is the APPEND broadcast submit plus the journal
	// goroutine handoff; the wave then retires during the next iteration's
	// PhaseRetireWait.
	PhaseDispatch
	// PhaseCheckpoint is a checkpoint interval — zero-length on every
	// iteration that does not checkpoint. The pipeline drains to a
	// quiescent point first, so this is honest coordinator serialization.
	PhaseCheckpoint

	numPhases
)

var phaseNames = [numPhases]string{
	"schedule", "retire.wait", "finalize", "access.wait", "commit", "dispatch", "checkpoint",
}

// String returns the phase's stable name (used in reports and tests).
func (p Phase) String() string {
	if int(p) < len(phaseNames) {
		return phaseNames[p]
	}
	return "unknown"
}

// Coordinator reports whether the phase is coordinator-side work (as opposed
// to a wait on worker fan-out). The distinction is descriptive — the ledger
// ranks all phases by measured all-idle time, because with wave overlap even
// a "wait" phase can expose coordinator serialization (e.g. retire.wait with
// an empty incoming wave) and a coordinator phase can be fully hidden behind
// worker execution.
func (p Phase) Coordinator() bool {
	return p != PhaseRetireWait && p != PhaseAccessWait
}

// WorkerKind classifies a worker task for the busy totals.
type WorkerKind uint8

const (
	// WorkerAccess is an ACCESS exchange task (path read + worker-side
	// position-map commit).
	WorkerAccess WorkerKind = iota
	// WorkerAppend is an APPEND broadcast task (one per SDIMM per wave,
	// plus pooled re-home appends).
	WorkerAppend

	numWorkerKinds
)

// WaveRecord is one coordinator iteration's complete timing: Bounds[i] and
// Bounds[i+1] are the start and end of Phase(i), so the intervals are
// contiguous by construction and sum exactly to Bounds[numPhases]-Bounds[0].
// IdleNS[p] is the measured all-workers-idle wall-clock inside phase p,
// clamped to the phase interval (IdleNS[p] <= PhaseDur(p) structurally).
type WaveRecord struct {
	Index  uint64                `json:"index"`
	Ops    int                   `json:"ops"`
	Bounds [numPhases + 1]uint64 `json:"bounds_ns"`
	IdleNS [numPhases]uint64     `json:"all_idle_ns"`
}

// Wall returns the iteration's wall-clock duration.
func (w WaveRecord) Wall() uint64 { return w.Bounds[numPhases] - w.Bounds[0] }

// PhaseDur returns the duration of one phase interval.
func (w WaveRecord) PhaseDur(p Phase) uint64 { return w.Bounds[p+1] - w.Bounds[p] }

// NumPhases returns the number of phases an iteration records.
func NumPhases() int { return int(numPhases) }

// Collector accumulates iteration timings and the live worker-idle meter.
// One collector serves one pipeline at a time: the coordinator owns
// BeginWave/Mark/End, and every worker task (from any wave, since waves
// overlap) brackets itself with WorkerBegin/WorkerEnd. Totals fold in under
// the mutex, so Report may be called concurrently with a running pipeline.
type Collector struct {
	clock   func() uint64 // monotonic nanoseconds; must be goroutine-safe
	members int

	mu     sync.Mutex
	waves  uint64
	ops    uint64
	wallNS uint64

	phaseNS [numPhases]uint64
	idleNS  [numPhases]uint64 // measured all-idle, folded per phase
	busyNS  [numWorkerKinds]uint64

	// The all-idle meter: active counts in-flight worker tasks; while it is
	// zero (and tracking — i.e. a first wave has begun), wall-clock accrues
	// into idleTotal from idleStart. Waves snapshot the running total at
	// each phase boundary, so inter-Do gaps (idle with no wave open) never
	// land in any phase's ledger entry.
	tracking  bool
	active    int
	idleStart uint64
	idleTotal uint64

	ring []WaveRecord
	next uint64 // total records ever pushed to the ring
	free []*Wave
}

// NewCollector builds a collector for a cluster with the given member
// count, keeping the most recent ringSize wave records (default 256).
func NewCollector(members, ringSize int) *Collector {
	if ringSize <= 0 {
		ringSize = 256
	}
	start := time.Now()
	return &Collector{
		clock:   func() uint64 { return uint64(time.Since(start).Nanoseconds()) },
		members: members,
		ring:    make([]WaveRecord, 0, ringSize),
	}
}

// SetClock replaces the wall clock (tests inject a logical clock for
// deterministic records). Call before the first wave.
func (c *Collector) SetClock(clock func() uint64) {
	if c != nil && clock != nil {
		c.clock = clock
	}
}

// idleTotalLocked returns the idle meter's value as of now; c.mu held.
func (c *Collector) idleTotalLocked(now uint64) uint64 {
	total := c.idleTotal
	if c.tracking && c.active == 0 && now > c.idleStart {
		total += now - c.idleStart
	}
	return total
}

// WorkerBegin marks one worker task entering execution and returns its
// start stamp. Nil-safe: returns 0 on a nil collector (the matching
// WorkerEnd then no-ops too).
func (c *Collector) WorkerBegin() uint64 {
	if c == nil {
		return 0
	}
	now := c.clock()
	c.mu.Lock()
	if c.tracking && c.active == 0 && now > c.idleStart {
		c.idleTotal += now - c.idleStart
	}
	c.active++
	c.mu.Unlock()
	return now
}

// WorkerEnd marks the task begun at start as finished, accruing its span
// into the kind's busy total. When it was the last in-flight task, the
// all-idle meter starts running.
func (c *Collector) WorkerEnd(kind WorkerKind, start uint64) {
	if c == nil {
		return
	}
	now := c.clock()
	c.mu.Lock()
	if kind < numWorkerKinds && now > start {
		c.busyNS[kind] += now - start
	}
	if c.active > 0 {
		c.active--
	}
	if c.active == 0 {
		c.idleStart = now
	}
	c.mu.Unlock()
}

// Wave is one in-flight iteration's scratch. The coordinator owns it
// exclusively; worker tasks talk to the Collector, not the Wave.
type Wave struct {
	col    *Collector
	bounds [numPhases + 1]uint64
	idleAt [numPhases + 1]uint64 // idle-meter snapshot at each boundary
	marked Phase                 // next phase to be marked
}

// BeginWave opens an iteration at the current clock and snapshots the idle
// meter as its baseline (so idle time before the iteration — e.g. between
// Do calls — is excluded). Nil-safe: a nil collector returns a nil wave,
// and every Wave method is a no-op on nil.
func (c *Collector) BeginWave() *Wave {
	if c == nil {
		return nil
	}
	now := c.clock()
	c.mu.Lock()
	var w *Wave
	if n := len(c.free); n > 0 {
		w = c.free[n-1]
		c.free = c.free[:n-1]
	}
	if !c.tracking {
		c.tracking = true
		if c.active == 0 {
			c.idleStart = now
		}
	}
	base := c.idleTotalLocked(now)
	c.mu.Unlock()
	if w == nil {
		w = &Wave{col: c}
	} else {
		w.bounds = [numPhases + 1]uint64{}
		w.idleAt = [numPhases + 1]uint64{}
	}
	w.marked = 0
	w.bounds[0] = now
	w.idleAt[0] = base
	return w
}

// Mark closes phase p at the current clock. Phases skipped since the last
// mark get zero-length intervals at the same boundary, so the iteration's
// intervals always tile its wall-clock exactly. A zero-length interval also
// carries zero idle time (same snapshot at both ends).
func (w *Wave) Mark(p Phase) {
	if w == nil {
		return
	}
	now := w.col.clock()
	w.col.mu.Lock()
	cur := w.col.idleTotalLocked(now)
	w.col.mu.Unlock()
	for q := w.marked; q <= p && q < numPhases; q++ {
		w.bounds[q+1] = now
		w.idleAt[q+1] = cur
	}
	if p+1 > w.marked {
		w.marked = p + 1
	}
}

// End closes the iteration (marking any unfinished phases at the final
// clock), folds it into the collector totals and the recent-waves ring, and
// recycles the wave scratch.
func (w *Wave) End(ops int) {
	if w == nil {
		return
	}
	w.Mark(numPhases - 1)
	c := w.col

	rec := WaveRecord{Ops: ops, Bounds: w.bounds}
	for p := Phase(0); p < numPhases; p++ {
		var idle uint64
		if w.idleAt[p+1] > w.idleAt[p] {
			idle = w.idleAt[p+1] - w.idleAt[p]
		}
		// Clamp to the interval: the meter and the boundary stamps come from
		// separate clock reads, so skew must never make idle exceed the
		// phase it is attributed to.
		if d := rec.PhaseDur(p); idle > d {
			idle = d
		}
		rec.IdleNS[p] = idle
	}

	c.mu.Lock()
	rec.Index = c.next
	c.next++
	c.waves++
	c.ops += uint64(ops)
	c.wallNS += rec.Wall()
	for p := Phase(0); p < numPhases; p++ {
		c.phaseNS[p] += rec.PhaseDur(p)
		c.idleNS[p] += rec.IdleNS[p]
	}
	if len(c.ring) < cap(c.ring) {
		c.ring = append(c.ring, rec)
	} else {
		c.ring[rec.Index%uint64(cap(c.ring))] = rec
	}
	c.free = append(c.free, w)
	c.mu.Unlock()
}

// Recent returns the retained wave records, oldest first.
func (c *Collector) Recent() []WaveRecord {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]WaveRecord, 0, len(c.ring))
	if c.next > uint64(len(c.ring)) && len(c.ring) == cap(c.ring) {
		start := c.next % uint64(cap(c.ring))
		out = append(out, c.ring[start:]...)
		out = append(out, c.ring[:start]...)
	} else {
		out = append(out, c.ring...)
	}
	return out
}

// PhaseStat is one phase's aggregate across every recorded iteration.
type PhaseStat struct {
	Phase       string  `json:"phase"`
	Coordinator bool    `json:"coordinator"`
	TotalNS     uint64  `json:"total_ns"`
	Share       float64 `json:"share_of_wall"`
	MeanNSWave  float64 `json:"mean_ns_per_wave"`
	// AllIdleNS is the measured wall-clock inside this phase during which
	// zero worker tasks were in flight — the phase's true serialization
	// contribution.
	AllIdleNS uint64 `json:"all_idle_ns"`
}

// LedgerEntry ranks one serialization source: measured all-workers-idle
// wall-clock attributed to the phase.
type LedgerEntry struct {
	Phase        string  `json:"phase"`
	SerializedNS uint64  `json:"serialized_ns"`
	Share        float64 `json:"share_of_wall"`
}

// Report is the collector's aggregate view — the BENCH_blame.json payload.
type Report struct {
	Waves  uint64 `json:"waves"`
	Ops    uint64 `json:"ops"`
	WallNS uint64 `json:"wall_ns"`
	// AttributedNS is the wall-clock covered by named phase intervals.
	// Phases are contiguous by construction, so the attribution ratio is
	// exactly 1.0 — asserted, not assumed, by the wave-tiling test.
	AttributedNS     uint64      `json:"attributed_ns"`
	AttributionRatio float64     `json:"attribution_ratio"`
	Phases           []PhaseStat `json:"phases"`
	// AccessBusyNS/AppendBusyNS total worker task time by kind, across all
	// overlapping waves — the denominator for judging how much of the
	// wall-clock the fan-outs actually covered.
	AccessBusyNS uint64 `json:"access_busy_ns"`
	AppendBusyNS uint64 `json:"append_busy_ns"`
	// Ledger ranks every phase by measured all-workers-idle wall-clock —
	// the time the pipeline ran with no worker task in flight.
	Ledger []LedgerEntry `json:"serialization_ledger"`
	// SerializedNS totals the ledger; SerializedShare is its fraction of
	// wall-clock — the upper bound Amdahl's law puts on pipeline speedup.
	SerializedNS    uint64  `json:"serialized_ns"`
	SerializedShare float64 `json:"serialized_share"`
	TopBottleneck   string  `json:"top_bottleneck"`
	// MaxSpeedup is 1/SerializedShare-bounded ideal speedup at infinite
	// workers (Amdahl), explaining the measured parbench curve.
	MaxSpeedup float64 `json:"max_speedup_amdahl"`
}

// Report aggregates everything recorded so far.
func (c *Collector) Report() Report {
	if c == nil {
		return Report{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()

	r := Report{
		Waves:        c.waves,
		Ops:          c.ops,
		WallNS:       c.wallNS,
		AccessBusyNS: c.busyNS[WorkerAccess],
		AppendBusyNS: c.busyNS[WorkerAppend],
	}
	for p := Phase(0); p < numPhases; p++ {
		r.AttributedNS += c.phaseNS[p]
	}
	if r.WallNS > 0 {
		r.AttributionRatio = float64(r.AttributedNS) / float64(r.WallNS)
	}
	for p := Phase(0); p < numPhases; p++ {
		ps := PhaseStat{
			Phase:       p.String(),
			Coordinator: p.Coordinator(),
			TotalNS:     c.phaseNS[p],
			AllIdleNS:   c.idleNS[p],
		}
		if r.WallNS > 0 {
			ps.Share = float64(c.phaseNS[p]) / float64(r.WallNS)
		}
		if c.waves > 0 {
			ps.MeanNSWave = float64(c.phaseNS[p]) / float64(c.waves)
		}
		le := LedgerEntry{Phase: p.String(), SerializedNS: c.idleNS[p]}
		if r.WallNS > 0 {
			le.Share = float64(c.idleNS[p]) / float64(r.WallNS)
		}
		r.Ledger = append(r.Ledger, le)
		r.SerializedNS += c.idleNS[p]
		r.Phases = append(r.Phases, ps)
	}
	sort.SliceStable(r.Ledger, func(i, j int) bool {
		return r.Ledger[i].SerializedNS > r.Ledger[j].SerializedNS
	})
	if len(r.Ledger) > 0 {
		r.TopBottleneck = r.Ledger[0].Phase
	}
	if r.WallNS > 0 {
		r.SerializedShare = float64(r.SerializedNS) / float64(r.WallNS)
	}
	if r.SerializedShare > 0 {
		r.MaxSpeedup = 1 / r.SerializedShare
	}
	return r
}
