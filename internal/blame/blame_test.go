package blame

import (
	"testing"
)

// fakeClock is a settable logical clock.
type fakeClock struct{ now uint64 }

func (c *fakeClock) read() uint64 { return c.now }

func newTestCollector(members, ring int) (*Collector, *fakeClock) {
	col := NewCollector(members, ring)
	clk := &fakeClock{}
	col.SetClock(clk.read)
	return col, clk
}

func TestWaveTiling(t *testing.T) {
	col, clk := newTestCollector(2, 16)

	clk.now = 100
	w := col.BeginWave()
	clk.now = 110
	w.Mark(PhaseSchedule)
	clk.now = 130
	w.Mark(PhaseRetireWait)
	clk.now = 145
	w.Mark(PhaseFinalize)
	clk.now = 185
	w.Mark(PhaseAccessWait)
	clk.now = 195
	w.Mark(PhaseCommit)
	clk.now = 200
	w.Mark(PhaseDispatch)
	clk.now = 210
	w.End(8)

	recs := col.Recent()
	if len(recs) != 1 {
		t.Fatalf("Recent() has %d records, want 1", len(recs))
	}
	rec := recs[0]
	if rec.Ops != 8 || rec.Index != 0 {
		t.Fatalf("record = %+v, want ops=8 index=0", rec)
	}
	if rec.Wall() != 110 {
		t.Fatalf("Wall() = %d, want 110", rec.Wall())
	}
	wantDur := map[Phase]uint64{
		PhaseSchedule:   10,
		PhaseRetireWait: 20,
		PhaseFinalize:   15,
		PhaseAccessWait: 40,
		PhaseCommit:     10,
		PhaseDispatch:   5,
		PhaseCheckpoint: 10,
	}
	var sum uint64
	for p, want := range wantDur {
		if got := rec.PhaseDur(p); got != want {
			t.Errorf("PhaseDur(%s) = %d, want %d", p, got, want)
		}
		sum += rec.PhaseDur(p)
	}
	if sum != rec.Wall() {
		t.Fatalf("phase intervals sum to %d, wall is %d — tiling broken", sum, rec.Wall())
	}

	rep := col.Report()
	if rep.AttributionRatio != 1.0 {
		t.Fatalf("AttributionRatio = %v, want exactly 1.0", rep.AttributionRatio)
	}
	if rep.Waves != 1 || rep.Ops != 8 || rep.WallNS != 110 {
		t.Fatalf("report totals = %+v", rep)
	}
}

// TestSkippedPhases checks the early-exit contract: marking a later phase
// closes every skipped phase with a zero-length interval at the same
// boundary, and End closes the rest, so tiling stays exact.
func TestSkippedPhases(t *testing.T) {
	col, clk := newTestCollector(1, 16)

	clk.now = 10
	w := col.BeginWave()
	clk.now = 30
	w.Mark(PhaseAccessWait) // schedule, retire.wait, finalize, access.wait all end at 30
	clk.now = 50
	w.End(1) // commit, dispatch, checkpoint end at 50

	rec := col.Recent()[0]
	if rec.Wall() != 40 {
		t.Fatalf("Wall() = %d, want 40", rec.Wall())
	}
	if d := rec.PhaseDur(PhaseSchedule); d != 20 {
		t.Fatalf("schedule = %d, want 20 (first marked phase absorbs the span)", d)
	}
	for _, p := range []Phase{PhaseRetireWait, PhaseFinalize, PhaseAccessWait} {
		if d := rec.PhaseDur(p); d != 0 {
			t.Fatalf("%s = %d, want zero-length skipped interval", p, d)
		}
	}
	if d := rec.PhaseDur(PhaseCommit); d != 20 {
		t.Fatalf("commit = %d, want 20", d)
	}
	for _, p := range []Phase{PhaseDispatch, PhaseCheckpoint} {
		if d := rec.PhaseDur(p); d != 0 {
			t.Fatalf("%s = %d, want 0", p, d)
		}
	}
	if col.Report().AttributionRatio != 1.0 {
		t.Fatal("attribution must stay exact on early-exit waves")
	}
}

// TestIdleLedger drives the all-idle meter through one wave with a worker
// task covering part of it: only the stretches where zero tasks are in
// flight may land in the ledger, attributed to the phase they fell inside,
// and the worker span must show up in the busy totals.
func TestIdleLedger(t *testing.T) {
	col, clk := newTestCollector(2, 16)

	clk.now = 0
	w := col.BeginWave()
	clk.now = 10
	w.Mark(PhaseSchedule)  // 0..10 idle: no task in flight
	s := col.WorkerBegin() // task starts at 10
	clk.now = 40
	w.Mark(PhaseRetireWait) // 10..40 covered by the task: zero idle
	col.WorkerEnd(WorkerAccess, s)
	clk.now = 45
	w.Mark(PhaseFinalize)   // 40..45 idle again
	w.Mark(PhaseAccessWait) // zero-length
	clk.now = 60
	w.Mark(PhaseCommit) // 45..60 idle
	clk.now = 65
	w.Mark(PhaseDispatch) // 60..65 idle
	w.End(4)              // checkpoint zero-length

	rec := col.Recent()[0]
	wantIdle := map[Phase]uint64{
		PhaseSchedule:   10,
		PhaseRetireWait: 0,
		PhaseFinalize:   5,
		PhaseAccessWait: 0,
		PhaseCommit:     15,
		PhaseDispatch:   5,
		PhaseCheckpoint: 0,
	}
	for p, want := range wantIdle {
		if got := rec.IdleNS[p]; got != want {
			t.Errorf("IdleNS[%s] = %d, want %d", p, got, want)
		}
		if rec.IdleNS[p] > rec.PhaseDur(p) {
			t.Errorf("IdleNS[%s] = %d exceeds interval %d", p, rec.IdleNS[p], rec.PhaseDur(p))
		}
	}

	rep := col.Report()
	if rep.AccessBusyNS != 30 || rep.AppendBusyNS != 0 {
		t.Fatalf("busy totals = access %d append %d, want 30/0", rep.AccessBusyNS, rep.AppendBusyNS)
	}
	if rep.SerializedNS != 35 {
		t.Fatalf("SerializedNS = %d, want 35 (total measured idle)", rep.SerializedNS)
	}
	if got, want := rep.SerializedShare, 35.0/65.0; got != want {
		t.Fatalf("SerializedShare = %v, want %v", got, want)
	}
	if got, want := rep.MaxSpeedup, 65.0/35.0; got != want {
		t.Fatalf("MaxSpeedup = %v, want %v", got, want)
	}
	if len(rep.Ledger) != NumPhases() {
		t.Fatalf("ledger has %d entries, want every phase (%d)", len(rep.Ledger), NumPhases())
	}
	wantOrder := []string{"commit", "schedule", "finalize", "dispatch"}
	for i, want := range wantOrder {
		if rep.Ledger[i].Phase != want {
			t.Fatalf("ledger[%d] = %s, want %s (full: %+v)", i, rep.Ledger[i].Phase, want, rep.Ledger)
		}
	}
	if rep.TopBottleneck != "commit" {
		t.Fatalf("TopBottleneck = %q, want commit", rep.TopBottleneck)
	}
}

// TestOverlapHidesIdle is the decoupling property the ledger exists to
// measure: a coordinator phase fully covered by an in-flight worker task
// (wave overlap) contributes interval time but zero serialized time.
func TestOverlapHidesIdle(t *testing.T) {
	col, clk := newTestCollector(2, 16)

	clk.now = 0
	s := col.WorkerBegin() // previous wave's append still running
	w := col.BeginWave()
	clk.now = 30
	w.Mark(PhaseSchedule) // whole schedule phase overlapped by the task
	col.WorkerEnd(WorkerAppend, s)
	clk.now = 50
	w.End(2)

	rec := col.Recent()[0]
	if rec.PhaseDur(PhaseSchedule) != 30 || rec.IdleNS[PhaseSchedule] != 0 {
		t.Fatalf("schedule dur=%d idle=%d, want 30/0 (hidden behind worker)",
			rec.PhaseDur(PhaseSchedule), rec.IdleNS[PhaseSchedule])
	}
	if rec.IdleNS[PhaseRetireWait] != 20 {
		t.Fatalf("retire.wait idle = %d, want 20 (meter restarts at WorkerEnd)", rec.IdleNS[PhaseRetireWait])
	}
	if rep := col.Report(); rep.AppendBusyNS != 30 {
		t.Fatalf("AppendBusyNS = %d, want 30", rep.AppendBusyNS)
	}
}

func TestRingWraparoundOldestFirst(t *testing.T) {
	col, clk := newTestCollector(1, 4)
	for i := 0; i < 10; i++ {
		clk.now = uint64(i * 100)
		w := col.BeginWave()
		clk.now = uint64(i*100 + 10)
		w.End(i)
	}
	recs := col.Recent()
	if len(recs) != 4 {
		t.Fatalf("Recent() has %d records, want 4", len(recs))
	}
	for i, rec := range recs {
		if want := uint64(6 + i); rec.Index != want {
			t.Fatalf("recent[%d].Index = %d, want %d", i, rec.Index, want)
		}
	}
	if rep := col.Report(); rep.Waves != 10 {
		t.Fatalf("Waves = %d, want 10 (totals cover evicted records too)", rep.Waves)
	}
}

// TestNilSafety: a nil collector must be a complete no-op so production
// clusters run without one attached.
func TestNilSafety(t *testing.T) {
	var col *Collector
	w := col.BeginWave()
	w.Mark(PhaseSchedule)
	s := col.WorkerBegin()
	col.WorkerEnd(WorkerAccess, s)
	w.End(5)
	if col.Recent() != nil {
		t.Fatal("nil collector Recent() should be nil")
	}
	if rep := col.Report(); rep.Waves != 0 {
		t.Fatal("nil collector Report() should be zero")
	}
	col.SetClock(func() uint64 { return 0 })
}

// TestWaveRecycling checks the free-list reuses scratch without leaking
// state between waves, and that idle accrued between waves (no wave open)
// never lands in any wave's ledger.
func TestWaveRecycling(t *testing.T) {
	col, clk := newTestCollector(2, 8)

	clk.now = 0
	w := col.BeginWave()
	clk.now = 50
	w.End(1) // fully idle wave: 50ns of idle in its record

	// 50..100: idle with no wave open — must be excluded from both records.
	clk.now = 100
	w2 := col.BeginWave()
	clk.now = 120
	w2.End(1)

	recs := col.Recent()
	var idle0, idle1 uint64
	for p := Phase(0); p < Phase(NumPhases()); p++ {
		idle0 += recs[0].IdleNS[p]
		idle1 += recs[1].IdleNS[p]
	}
	if idle0 != 50 {
		t.Fatalf("wave 0 idle = %d, want 50", idle0)
	}
	if idle1 != 20 {
		t.Fatalf("wave 1 idle = %d, want 20 (inter-wave gap leaked in)", idle1)
	}
	if recs[1].Bounds[0] != 100 {
		t.Fatalf("recycled wave start = %d, want 100", recs[1].Bounds[0])
	}
	if rep := col.Report(); rep.SerializedNS != 70 {
		t.Fatalf("SerializedNS = %d, want 70", rep.SerializedNS)
	}
}
