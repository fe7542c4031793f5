package sdimm

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"sdimm/internal/blame"
	"sdimm/internal/durable"
	"sdimm/internal/fault"
	"sdimm/internal/flight"
	"sdimm/internal/oram"
	isdimm "sdimm/internal/sdimm"
)

// This file is the parallel execution engine for functional clusters: a
// pool of persistent per-SDIMM worker goroutines and, on top of it, a
// decoupled two-wave access pipeline that keeps a window of independent ORAM
// accesses in flight behind the existing fault.Transactor links.
//
// The pipeline is decoupled: wave N+1's ACCESS exchanges run while wave N's
// APPEND broadcast and journal append are still in flight. The coordinator
// holds at most two waves — the wave being launched and the previous wave
// being retired — and the serialized coordinator work per wave shrinks to
// scheduling, the commit walk, and result finalization. Everything else
// (ACCESS exchanges, position-map commits, response decode, payload copies,
// APPEND broadcasts, the journal append, re-homing appends) runs off the
// coordinator goroutine.
//
// Determinism is preserved by construction, not by luck:
//
//   - Every draw from the cluster's shared RNG (leaf picks, re-homing)
//     happens on the coordinator goroutine, in logical-access order. Workers
//     never touch shared randomness.
//   - Each worker owns exactly one SDIMM's link, buffer, and health record,
//     and drains its task queue FIFO in submission (= logical) order. The
//     submission order per worker — ACCESS tasks of wave N, wave N's append
//     walk, ACCESS tasks of wave N+1, wave N's re-homes — is a pure function
//     of the schedule, so every buffer observes the same operation sequence
//     at any parallelism.
//   - Position-map commits happen on the owning worker the moment its buffer
//     executed the access, through the sharded position map (each access in
//     a wave touches a distinct address, so commits are per-address
//     independent). The journal record stream is still assembled on the
//     coordinator in logical order.
//   - Health is read through a coordinator-owned snapshot refreshed at the
//     pipeline's quiescent points (one per iteration), so scheduling and
//     re-homing decisions never race worker-side health transitions. The
//     snapshot is at most one wave stale — a member that fails mid-wave is
//     seen by the schedule one wave later, exactly as a sequential client
//     discovers a failure on its next access.
//   - The wave schedule depends only on the configured window and the
//     addresses in flight, never on Parallelism, which bounds worker
//     concurrency and nothing else.
//
// A Parallelism: 1 pipeline and a Parallelism: N pipeline therefore produce
// bitwise-identical position maps, stash contents, and telemetry counters
// from the same seed — the equivalence suites in parallel_test.go and
// parallel_soak_test.go prove it.

// workerPool runs tasks on persistent per-member goroutines. Tasks
// submitted to one member execute FIFO in submission order; tasks across
// members run concurrently, up to the pool's parallelism bound.
type workerPool struct {
	tasks []chan poolTask
	sem   chan struct{}
	once  sync.Once
}

// poolTask is one queued unit of work and the caller-owned WaitGroup that
// tracks it.
type poolTask struct {
	fn func()
	wg *sync.WaitGroup
}

// newWorkerPool starts n workers whose aggregate concurrency is capped at
// parallelism (values < 1 are clamped to 1). queue bounds how many tasks
// can be pending per worker before submitWG blocks.
func newWorkerPool(n, parallelism, queue int) *workerPool {
	if parallelism < 1 {
		parallelism = 1
	}
	if queue < 1 {
		queue = 1
	}
	p := &workerPool{
		tasks: make([]chan poolTask, n),
		sem:   make(chan struct{}, parallelism),
	}
	for i := range p.tasks {
		ch := make(chan poolTask, queue)
		p.tasks[i] = ch
		go func() {
			for t := range ch {
				p.sem <- struct{}{}
				t.fn()
				t.wg.Done()
				<-p.sem
			}
		}()
	}
	return p
}

// submitWG queues fn on member w's worker, tracked by a caller-owned
// WaitGroup — the pipeline uses per-wave groups so two waves can be in
// flight without sharing a barrier. After wg.Wait returns the caller
// observes every write fn made.
func (p *workerPool) submitWG(w int, wg *sync.WaitGroup, fn func()) {
	wg.Add(1)
	p.tasks[w] <- poolTask{fn: fn, wg: wg}
}

// close stops the workers once their queues drain. Idempotent. Callers must
// wait their own groups first.
func (p *workerPool) close() {
	p.once.Do(func() {
		for _, ch := range p.tasks {
			close(ch)
		}
	})
}

// BatchOp is one operation submitted to a Pipeline: a read (Write false) or
// a write of Data (padded to the cluster block size). Migrate marks the op
// as a rebalance migration step (a read journaled as KindMigrate whose
// payload is not delivered); drivers build migration batches from
// Cluster.NextMigrations and interleave them with workload ops — on the
// channel the two are indistinguishable.
type BatchOp struct {
	Addr    uint64
	Write   bool
	Data    []byte
	Migrate bool
}

// BatchResult is the outcome of one BatchOp. Data is the payload for reads
// (zeros if the address was never written); Err reports a failed access.
type BatchResult struct {
	Data []byte
	Err  error
}

// PipelineOptions size a Cluster access pipeline.
type PipelineOptions struct {
	// Window is the logical batch window: up to this many accesses are
	// scheduled into one wave. The wave schedule is a pure function of the
	// submitted operations and the window — never of Parallelism — so runs
	// that differ only in Parallelism stay bitwise identical. Default 8.
	Window int
	// Parallelism bounds how many SDIMM workers execute concurrently
	// (default = Window). 1 degenerates to sequential execution of the
	// exact same logical schedule.
	Parallelism int
	// FillTimeout bounds how long Serve waits for more operations before
	// launching a partially filled wave. Without a bound a trickle of
	// callers stalls behind a window that never fills — the last ops of a
	// batch would wait indefinitely for peers that never come. The wait
	// only runs with no wave in flight. Zero selects DefaultFillTimeout;
	// negative launches partial waves immediately (no coalescing delay). Do
	// never waits: its source is pre-filled and closed.
	FillTimeout time.Duration
}

// DefaultFillTimeout is the streaming pipeline's window-fill bound: long
// enough that concurrent request streams coalesce into full waves, short
// enough to be invisible next to request deadlines in the hundreds of
// milliseconds.
const DefaultFillTimeout = 2 * time.Millisecond

func (o PipelineOptions) withDefaults() PipelineOptions {
	if o.Window <= 0 {
		o.Window = 8
	}
	if o.Parallelism <= 0 {
		o.Parallelism = o.Window
	}
	if o.FillTimeout == 0 {
		o.FillTimeout = DefaultFillTimeout
	}
	return o
}

// Pipeline is a batched access engine over a Cluster: it keeps up to two
// waves of up to Window independent accesses in flight, fanning whole
// accessORAM operations out to the owning SDIMMs' workers (the Independent
// protocol's unit of distribution) and overlapping each wave's APPEND
// broadcast and journal append with the next wave's ACCESS exchanges. Serve
// is its one wave loop; Do drives it over a pre-filled, closed source. Both
// answer ops in arrival order.
//
// The pipeline owns the cluster's request stream while in use: do not call
// Read/Write on the underlying Cluster concurrently with Do or Serve. Close
// stops the workers.
type Pipeline struct {
	c    *Cluster
	opts PipelineOptions
	pool *workerPool

	// Wave scratch, reused across waves so the steady-state batch loop
	// recycles its waveStates and pipeOps (and their payload buffers)
	// instead of reallocating them every wave.
	wsFree []*waveState
	free   []*pipeOp

	// healthSnap is the coordinator's view of member health, refreshed at
	// the pipeline's quiescent points. Scheduling and re-homing read it
	// instead of the live health records, which workers mutate while the
	// coordinator plans the next wave.
	healthSnap []fault.State

	// rehomeWG tracks the worker-side re-homing appends the coordinator
	// issues one at a time during wave retirement.
	rehomeWG sync.WaitGroup

	// waveN numbers the waves this pipeline has run — the wave id the blame
	// profiler and flight recorder stamp on their records.
	waveN uint64
}

// Pipeline builds a batched access pipeline over the cluster. The per-worker
// queue holds two full waves plus a wave's append walk and a re-home, so the
// coordinator never blocks on submission while the pipeline is in steady
// overlap.
func (c *Cluster) Pipeline(opts PipelineOptions) *Pipeline {
	opts = opts.withDefaults()
	return &Pipeline{
		c:    c,
		opts: opts,
		pool: newWorkerPool(len(c.buffers), opts.Parallelism, 2*opts.Window+4),
	}
}

// Close stops the per-SDIMM workers. The pipeline must not be used after.
func (p *Pipeline) Close() { p.pool.close() }

// waveState is one wave in flight: its scheduled ops, the addresses they
// touch (for the next wave's conflict stall), the journal batch, and the
// WaitGroups tracking its two fan-outs. States are pooled across waves.
type waveState struct {
	ops   []*pipeOp
	addrs map[uint64]bool
	recs  []durable.Record
	n     int

	wgA sync.WaitGroup // ACCESS fan-out
	wgB sync.WaitGroup // APPEND broadcast

	// jerr delivers the journal goroutine's result; journal records whether
	// one was spawned for this wave. The channel is buffered so the
	// goroutine never blocks on a retired wave.
	jerr    chan error
	journal bool

	waveID    uint64
	traceEnd  func(map[string]any)
	traceLane int
}

// takeWave pops a pooled waveState or allocates a fresh one. A pipeline
// holds at most two (launching + retiring), so the pool stays tiny.
func (p *Pipeline) takeWave() *waveState {
	n := len(p.wsFree)
	if n == 0 {
		return &waveState{
			addrs:     make(map[uint64]bool, p.opts.Window),
			jerr:      make(chan error, 1),
			traceLane: -1,
		}
	}
	w := p.wsFree[n-1]
	p.wsFree[n-1] = nil
	p.wsFree = p.wsFree[:n-1]
	return w
}

// releaseWave returns a retired wave's ops to the pool and resets the state
// for reuse.
func (p *Pipeline) releaseWave(w *waveState) {
	for i, po := range w.ops {
		p.free = append(p.free, po)
		w.ops[i] = nil
	}
	w.ops = w.ops[:0]
	clear(w.addrs)
	w.recs = clearRecords(w.recs)
	w.n = 0
	w.journal = false
	w.traceEnd = nil
	w.traceLane = -1
	p.wsFree = append(p.wsFree, w)
}

// pipeOp is one access moving through a wave. Ops are pooled across waves:
// every field is reset by takeOp, and the slice fields keep their backing
// arrays so steady-state waves reuse them. out is the exception — it is
// handed to the caller in a BatchResult and never pooled.
type pipeOp struct {
	done    chan<- BatchResult // the submitter's answer channel
	addr    uint64
	op      oram.Op
	migrate bool   // rebalance migration step (journals as KindMigrate)
	data    []byte // padded write payload (nil for reads; aliases dataBuf)

	oldG, newG uint64
	sd, sdNew  int
	keep       bool

	err       error  // first error on the access (scheduling, exchange, ack)
	decodeErr error  // response decode failure (folded into err after commit)
	skip      bool   // scheduling failed: no exchanges at all
	committed bool   // commit walk journaled this op
	respBody  []byte // exchange response copy (phase A, written by owner worker)
	resp      isdimm.AccessResponse
	blk       oram.Block
	out       []byte // read payload for delivery (worker-built, escapes)

	appendErr []error  // per-SDIMM failed append exchange (phase B)
	appendBad [][]byte // per-SDIMM malformed append ack (phase B)

	dataBuf []byte // reusable backing store for data
}

// takeOp pops a pooled pipeOp (or allocates the pool's first ones),
// resetting every field while keeping the reusable backing arrays.
func (p *Pipeline) takeOp() *pipeOp {
	n := len(p.free)
	if n == 0 {
		return &pipeOp{}
	}
	po := p.free[n-1]
	p.free[n-1] = nil
	p.free = p.free[:n-1]
	*po = pipeOp{
		dataBuf:   po.dataBuf,
		respBody:  po.respBody[:0],
		appendErr: po.appendErr[:0],
		appendBad: po.appendBad[:0],
	}
	return po
}

// resizeErrs returns a zeroed error slice of length n, reusing capacity.
func resizeErrs(s []error, n int) []error {
	if cap(s) < n {
		return make([]error, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// resizeFrames returns a zeroed byte-slice slice of length n, reusing
// capacity.
func resizeFrames(s [][]byte, n int) [][]byte {
	if cap(s) < n {
		return make([][]byte, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// clearRecords empties a record batch for reuse without retaining payload
// references.
func clearRecords(recs []durable.Record) []durable.Record {
	clear(recs)
	return recs[:0]
}

// snapshotHealth refreshes the coordinator's health snapshot. Called only at
// quiescent points (no worker task in flight), so the read is race-free and
// the snapshot is a pure function of the completed exchange history.
func (p *Pipeline) snapshotHealth() {
	c := p.c
	if cap(p.healthSnap) < len(c.health) {
		p.healthSnap = make([]fault.State, len(c.health))
	}
	p.healthSnap = p.healthSnap[:len(c.health)]
	for i, h := range c.health {
		p.healthSnap[i] = h.State()
	}
}

// pickLeafSnap draws a uniform leaf among the snapshot-eligible members —
// the pipeline's counterpart of pickHealthyLeaf, reading the coordinator's
// health snapshot instead of the live (worker-mutated) records.
func (p *Pipeline) pickLeafSnap(globalLeaves uint64) (uint64, error) {
	return p.c.pickLeafStates(func(i int) fault.State { return p.healthSnap[i] },
		len(p.healthSnap), globalLeaves)
}

// AsyncOp is one operation submitted to the pipeline's wave loop (Serve):
// the op plus a buffered channel that receives exactly one result when the
// op retires. Every submitted op is answered — delivered, failed, or
// failed-on-crash — before Serve returns, and answers are sent in arrival
// order, so AsyncOps may share one Done channel of sufficient capacity.
type AsyncOp struct {
	Op   BatchOp
	Done chan BatchResult
}

// NewAsyncOp wraps op with a result channel sized so the pipeline never
// blocks on delivery.
func NewAsyncOp(op BatchOp) *AsyncOp {
	return &AsyncOp{Op: op, Done: make(chan BatchResult, 1)}
}

// Serve is the pipeline's wave loop: it pulls individually submitted
// operations from in, coalesces them into waves of up to Window, and
// overlaps wave N+1's ACCESS exchanges with wave N's APPEND broadcast and
// journal append. A wave launches as soon as it is full, the moment in
// closes, or after FillTimeout with whatever has arrived — a partially
// filled wave never waits indefinitely for callers that never come. The
// fill wait only ever runs with no wave in flight: a partial window found
// while a wave is in flight retires that wave first, so a finished wave's
// answers never wait on stragglers for the next one.
//
// Semantics match issuing the same operations through Read/Write one at a
// time, in arrival order, with one deliberate difference: accesses in the
// same wave observe the position map and health state as of the wave's
// start. A wave never schedules an address that appears in the wave still
// in flight or earlier in itself (the schedule breaks there), so
// per-address read/write ordering is preserved exactly. Checkpoints run
// only at fully drained points, so the checkpoint cadence (in
// committed-access terms) is identical to the sequential path's.
//
// Serve owns the cluster's request stream while running: do not call Do,
// Read, or Write concurrently. It returns only after in is closed and every
// submitted op has been answered, in arrival order. After a crash (planned
// crash point or journal failure) remaining and subsequent ops fail with
// the crash error, preserving the write-ahead contract.
func (p *Pipeline) Serve(in <-chan *AsyncOp) {
	c := p.c
	globalLeaves := uint64(1) << (c.levels - 1)
	p.snapshotHealth()

	var (
		buf    = make([]*AsyncOp, 0, p.opts.Window) // admitted, not yet scheduled (arrival order)
		prev   *waveState
		closed bool
	)
	timer := time.NewTimer(time.Hour)
	stopFillTimer(timer)

	// bail fails everything still buffered or yet to arrive, returning once
	// in closes. Called after prev is fully retired.
	bail := func(err error) {
		for _, a := range buf {
			a.Done <- BatchResult{Err: err}
		}
		if !closed {
			for a := range in {
				a.Done <- BatchResult{Err: err}
			}
		}
	}

	for {
		if !closed && len(buf) < p.opts.Window {
			if prev != nil {
				// Retirement work is pending: take only what has arrived.
				buf, closed = p.drain(in, buf)
			} else {
				buf, closed = p.fillBuf(in, buf, timer)
			}
		}
		if len(buf) == 0 && prev == nil {
			return // fillBuf only comes back empty once in is closed
		}

		// Observability taps: nil-safe no-ops without a blame collector or
		// flight recorder attached; neither draws randomness nor feeds state
		// back, so attaching them cannot perturb the wave schedule or the
		// bitwise-equivalence guarantee.
		bw := c.blame.BeginWave()
		if c.crashedNow() {
			// The cluster died at a planned crash point. Retire the in-flight
			// wave first — its journal outcome decides its results — then fail
			// everything not yet scheduled.
			if prev != nil {
				p.retire(prev, bw)
			} else {
				bw.Mark(blame.PhaseSchedule)
				bw.Mark(blame.PhaseRetireWait)
				bw.Mark(blame.PhaseFinalize)
			}
			bw.End(0)
			bail(durable.ErrCrashed)
			return
		}

		// Checkpoint gate: when a checkpoint is due the pipeline stalls the
		// schedule and drains, so the checkpoint captures a quiescent image at
		// the same committed-sequence boundary the sequential path would.
		ckptDue := c.checkpointDue()
		// Retire-first: a partial window that would wait for stragglers is
		// not scheduled behind a wave in flight; that wave retires this
		// iteration and the next fills with nothing in flight.
		partial := !closed && len(buf) < p.opts.Window && p.opts.FillTimeout >= 0

		var w *waveState
		if len(buf) > 0 && !ckptDue && (prev == nil || !partial) {
			w = p.scheduleWave(buf, prev, globalLeaves)
			if w != nil {
				p.dispatchAccess(w)
			}
		}
		bw.Mark(blame.PhaseSchedule)

		if prev != nil {
			p.retire(prev, bw)
			prev = nil
		} else {
			bw.Mark(blame.PhaseRetireWait)
			bw.Mark(blame.PhaseFinalize)
		}

		launched := 0
		if w != nil {
			w.wgA.Wait()
			bw.Mark(blame.PhaseAccessWait)
			// Quiescent point: the previous wave is fully retired and this
			// wave's ACCESS tasks have drained — no worker task is in flight.
			p.snapshotHealth()
			buf = append(buf[:0], buf[w.n:]...)
			if c.crashedNow() {
				// The retired wave's journal goroutine hit the crash point
				// while this wave's exchanges ran. Nothing of this wave may
				// commit; answers keep any per-op exchange error (so they match
				// the race-free outcome) and report the crash otherwise.
				for _, po := range w.ops {
					if po.err == nil {
						po.err = durable.ErrCrashed
					}
					po.done <- po.result()
				}
				p.releaseWave(w)
				bw.End(0)
				bail(durable.ErrCrashed)
				return
			}
			p.commit(w)
			bw.Mark(blame.PhaseCommit)
			p.dispatchAppend(w)
			p.spawnJournal(w)
			c.flight.Coordinator().Record(flight.KindPhase, uint64(blame.PhaseDispatch), w.waveID)
			launched = w.n
			prev = w
			bw.Mark(blame.PhaseDispatch)
		} else if ckptDue {
			// Fully drained (prev retired above, nothing launched): safe to
			// capture. Close the unreached phases at zero length first so the
			// checkpoint interval carries exactly the checkpoint time.
			bw.Mark(blame.PhaseAccessWait)
			bw.Mark(blame.PhaseCommit)
			bw.Mark(blame.PhaseDispatch)
			err := c.ForceCheckpoint()
			bw.Mark(blame.PhaseCheckpoint)
			if err != nil {
				bw.End(0)
				bail(err)
				return
			}
		}
		bw.End(launched)
	}
}

// Do executes ops through the wave loop and returns one result per op, in
// order, with Serve's semantics. The source is pre-filled and closed, so
// every window is full or final and Do never waits on the fill timeout; all
// ops share one Done channel, read back in arrival order.
func (p *Pipeline) Do(ops []BatchOp) []BatchResult {
	in := make(chan *AsyncOp, len(ops))
	done := make(chan BatchResult, len(ops))
	acks := make([]AsyncOp, len(ops))
	for i, op := range ops {
		acks[i] = AsyncOp{Op: op, Done: done}
		in <- &acks[i]
	}
	close(in)
	p.Serve(in)
	res := make([]BatchResult, len(ops))
	for i := range res {
		res[i] = <-done
	}
	return res
}

// scheduleWave admits up to Window ops with addresses distinct from each
// other and from the wave still in flight, drawing all shared randomness on
// the coordinator in logical order. Returns nil when the first candidate op
// conflicts with the in-flight wave — the caller retires it and retries, so
// progress is guaranteed (with no wave in flight the first op never
// conflicts).
func (p *Pipeline) scheduleWave(buf []*AsyncOp, prev *waveState, globalLeaves uint64) *waveState {
	w := p.takeWave()
	for _, ao := range buf {
		if len(w.ops) == p.opts.Window {
			break
		}
		a := ao.Op.Addr
		if w.addrs[a] || (prev != nil && prev.addrs[a]) {
			// The next op must observe the earlier access's commit — and for
			// the in-flight wave, its append landing and any re-home — so the
			// wave ends here.
			break
		}
		w.addrs[a] = true
		w.ops = append(w.ops, p.schedule(ao, globalLeaves))
	}
	w.n = len(w.ops)
	if w.n == 0 {
		p.releaseWave(w)
		return nil
	}
	w.waveID = p.waveN
	p.waveN++
	return w
}

// schedule prepares one access: position lookup and every shared-RNG draw,
// in logical order on the coordinator. Health reads go through the snapshot.
func (p *Pipeline) schedule(ao *AsyncOp, globalLeaves uint64) *pipeOp {
	c := p.c
	op := ao.Op
	po := p.takeOp()
	po.done, po.addr, po.op = ao.Done, op.Addr, oram.OpRead
	po.migrate = op.Migrate
	if op.Write {
		if op.Migrate {
			po.err = fmt.Errorf("sdimm: migration op %d cannot be a write", op.Addr)
			po.skip = true
			return po
		}
		po.op = oram.OpWrite
		if len(op.Data) > c.blockSize {
			po.err = fmt.Errorf("sdimm: payload %d exceeds block size %d", len(op.Data), c.blockSize)
			po.skip = true
			return po
		}
		if cap(po.dataBuf) < c.blockSize {
			po.dataBuf = make([]byte, c.blockSize)
		}
		po.data = po.dataBuf[:c.blockSize]
		clear(po.data)
		copy(po.data, op.Data)
	}

	oldG, mapped := c.pos.Get(po.addr)
	if !mapped {
		var err error
		if oldG, err = p.pickLeafSnap(globalLeaves); err != nil {
			po.err, po.skip = err, true
			return po
		}
	}
	po.oldG = oldG
	po.sd = int(oldG >> c.localBits)
	if st := p.healthSnap[po.sd]; st == fault.Failed || st == fault.Removed {
		po.err = c.wrapErr(po.sd, "access", fault.ErrUnavailable)
		po.skip = true
		return po
	}
	newG, err := p.pickLeafSnap(globalLeaves)
	if err != nil {
		po.err, po.skip = err, true
		return po
	}
	po.newG = newG
	po.sdNew = int(newG >> c.localBits)
	po.keep = po.sd == po.sdNew
	return po
}

// dispatchAccess fans the wave's ACCESS exchanges out to the owning SDIMMs'
// workers and opens the wave's trace span.
func (p *Pipeline) dispatchAccess(w *waveState) {
	c := p.c
	c.flight.Coordinator().Record(flight.KindWave, w.waveID, uint64(w.n))
	if tr := c.tm.tracer; tr != nil {
		w.traceLane = tr.Lane()
		sp := tr.Begin(w.traceLane, "cluster.wave", "cluster")
		w.traceEnd = sp.EndArgs
	}
	for _, po := range w.ops {
		if po.skip {
			continue
		}
		po := po
		p.pool.submitWG(po.sd, &w.wgA, func() { p.accessTask(po) })
	}
}

// accessTask runs one access on the owning SDIMM's worker: the exchange, the
// position-map commit, the response decode, and the read-payload copy. The
// payload copy is the one allocation that escapes — it is handed to the
// caller — so building it here takes it off the coordinator's critical path.
func (p *Pipeline) accessTask(po *pipeOp) {
	c := p.c
	st := c.blame.WorkerBegin()
	defer c.blame.WorkerEnd(blame.WorkerAccess, st)

	mask := uint64(1)<<c.localBits - 1
	req := isdimm.AccessRequest{
		Addr:    po.addr,
		Op:      po.op,
		Data:    po.data,
		OldLeaf: po.oldG & mask,
		NewLeaf: po.newG & mask,
		Keep:    po.keep,
	}
	resp, err := c.exchange(po.sd, "access", c.accessBody(po.sd, req))
	if err != nil {
		po.err = err
		return
	}
	// Exchange hands back transactor-owned scratch; a later op sharing this
	// link overwrites it, so the op keeps a copy.
	po.respBody = append(po.respBody[:0], resp...)
	// Worker-side position commit: the owning buffer has executed the
	// access, so the new position is truth. Addresses within and across
	// in-flight waves are distinct, and the sharded map serializes any
	// shard-level contention, so this is exactly the staged-commit rule of
	// the sequential path — just off the coordinator.
	c.pos.Set(po.addr, po.newG)
	r, derr := isdimm.UnmarshalResponse(po.respBody, c.blockSize)
	if derr != nil {
		// Decode failure is held apart from err: the access committed (the
		// buffer executed it), so the commit walk must still journal it —
		// matching the sequential path, which journals before decoding.
		po.decodeErr = c.wrapErr(po.sd, "access response", derr)
		return
	}
	po.resp = r
	po.blk = r.Block
	po.blk.Addr = po.addr
	po.blk.Leaf = po.newG & mask
	if po.op == oram.OpRead && !po.migrate {
		if r.Dummy || r.Block.Data == nil {
			po.out = make([]byte, c.blockSize)
		} else {
			po.out = append([]byte(nil), r.Block.Data...)
		}
	}
}

// commit walks the wave in logical order on the coordinator, building the
// journal batch for every access whose owning buffer executed it. A failed
// exchange leaves the map untouched and journals nothing — exactly the
// staged-commit rule of the sequential path. (The position-map updates
// themselves already committed worker-side in accessTask.)
func (p *Pipeline) commit(w *waveState) {
	c := p.c
	w.recs = w.recs[:0]
	for _, po := range w.ops {
		if po.skip || po.err != nil {
			continue
		}
		// makeRecord keys the record kind off the cluster's migrating flag;
		// setting it per-op here keeps the coordinator's logical order — the
		// journal carries migrations and workload interleaved exactly as
		// scheduled.
		c.migrating = po.migrate
		w.recs = append(w.recs, c.makeRecord(po.addr, po.op, po.data))
		c.migrating = false
		po.committed = true
		if po.decodeErr != nil {
			// Journaled but undeliverable: surface the decode failure now that
			// the record exists, so the append walk skips the op.
			po.err = po.decodeErr
		}
	}
}

// dispatchAppend launches the wave's APPEND broadcast: one task per SDIMM
// walks the wave in logical order, so each buffer sees its appends in the
// same sequence at any parallelism. Outcomes land in per-(op, SDIMM) slots
// and are resolved at retirement.
func (p *Pipeline) dispatchAppend(w *waveState) {
	c := p.c
	for _, po := range w.ops {
		po.appendErr = resizeErrs(po.appendErr, len(c.buffers))
		po.appendBad = resizeFrames(po.appendBad, len(c.buffers))
	}
	for j := range c.buffers {
		j := j
		p.pool.submitWG(j, &w.wgB, func() {
			st := c.blame.WorkerBegin()
			defer c.blame.WorkerEnd(blame.WorkerAppend, st)
			for _, po := range w.ops {
				if po.skip || po.err != nil {
					continue
				}
				real := !po.keep && j == po.sdNew && !po.resp.Dummy
				if !real {
					// Own-health read: only this worker's exchanges mutate
					// health[j], so the read is race-free and deterministic.
					if hs := c.health[j].State(); hs == fault.Failed || hs == fault.Removed {
						// A dead or removed buffer has no channel; its dummy
						// is undeliverable.
						continue
					}
				}
				ack, err := c.exchange(j, "append", c.appendBody(j, po.blk, !real))
				switch {
				case err != nil:
					po.appendErr[j] = err
				case len(ack) != 1 || ack[0] != appendAck:
					po.appendBad[j] = append([]byte(nil), ack...)
				}
			}
		})
	}
}

// spawnJournal hands the wave's journal batch to a dedicated goroutine so
// the chained HMAC extension and file write overlap the next wave's ACCESS
// exchanges. The whole batch seals as one chained group (one tag per wave).
// Retirement collects the outcome before any of the wave's results are
// acknowledged — the write-ahead contract is unchanged, only the waiting
// moved.
func (p *Pipeline) spawnJournal(w *waveState) {
	c := p.c
	if len(w.recs) == 0 || c.dur == nil || c.replaying {
		w.journal = false
		return
	}
	w.journal = true
	recs := w.recs
	go func() { w.jerr <- c.appendRecords(recs) }()
}

// retire completes a dispatched wave: waits out its APPEND broadcast and
// journal append, resolves append outcomes (lost-append accounting,
// re-homing, malformed acks), and answers its ops in logical order.
func (p *Pipeline) retire(w *waveState, bw *blame.Wave) {
	c := p.c
	w.wgB.Wait()
	var jerr error
	if w.journal {
		jerr = <-w.jerr
	}
	bw.Mark(blame.PhaseRetireWait)

	if jerr != nil {
		// The journal append died mid-wave (a planned crash point, or real
		// I/O failure). Some records may be durable, but acknowledging any
		// result now could acknowledge an access the journal lost — fail
		// every journaled op; recovery re-drives from the journal's valid
		// prefix.
		for _, po := range w.ops {
			if po.committed {
				po.err = jerr
			}
		}
	}
	globalLeaves := uint64(1) << (c.levels - 1)
	for _, po := range w.ops {
		p.finalize(po, globalLeaves)
	}
	if w.traceEnd != nil {
		if jerr != nil {
			w.traceEnd(map[string]any{"ops": w.n, "err": true})
		} else {
			w.traceEnd(map[string]any{"ops": w.n})
		}
		c.tm.tracer.FreeLane(w.traceLane)
	}
	c.flight.Coordinator().Record(flight.KindPhase, uint64(blame.PhaseFinalize), w.waveID)
	// Answer last, once the wave's telemetry, trace and flight records are
	// written: a caller holding an answer observes them all. Done channels
	// are buffered, so answering never blocks the coordinator.
	for _, po := range w.ops {
		po.done <- po.result()
	}
	p.releaseWave(w)
	bw.Mark(blame.PhaseFinalize)
}

// finalize resolves one access at retirement: lost-append accounting,
// re-homing, malformed-ack detection, the poison veto, and the cluster.*
// observation.
func (p *Pipeline) finalize(po *pipeOp, globalLeaves uint64) {
	c := p.c
	if po.err == nil {
		for j := range c.buffers {
			if po.appendErr[j] != nil {
				c.tm.appendsLost.Inc()
				if !po.keep && j == po.sdNew && !po.resp.Dummy {
					// The migrating block was in this exchange: re-home it
					// (leaf draws on the coordinator, the append on the new
					// owner's worker) instead of losing the payload.
					if rerr := p.rehomePooled(po.addr, po.blk, j, globalLeaves); rerr != nil && po.err == nil {
						po.err = rerr
					}
				}
				continue
			}
			if po.appendBad[j] != nil && po.err == nil {
				po.err = c.wrapErr(j, "append", fmt.Errorf("sdimm: malformed append ack %x", po.appendBad[j]))
			}
		}
	}

	// Poison veto at delivery (same rule as the sequential path): the access
	// ran normally, but a payload lost to unrecoverable corruption is an
	// error, not zeros. Migration steps are exempt — their payload is never
	// delivered, and a poisoned block must still be carried off a draining
	// member.
	if po.err == nil && po.op == oram.OpRead && !po.migrate && c.poisoned[po.addr] {
		c.tm.poisonedReads.Inc()
		po.err = fmt.Errorf("sdimm: read %d: %w", po.addr, ErrUnrecoverable)
	}

	// Migration steps are accounted under cluster.migrations, not the
	// workload access counters — same split as the sequential DrainStep.
	if po.migrate {
		if po.err == nil {
			c.tm.migrations.Inc()
		}
	} else {
		c.tm.observe(po.op, po.err)
	}
}

// result is the op's answer: its error, or the payload of a delivered read.
func (po *pipeOp) result() BatchResult {
	if po.err == nil && po.op == oram.OpRead && !po.migrate {
		return BatchResult{Data: po.out}
	}
	return BatchResult{Err: po.err}
}

// rehomePooled re-homes an in-flight real block whose APPEND exchange was
// lost. Leaf draws stay on the coordinator (logical order); each candidate
// append runs as a task on the new owner's worker, because per-SDIMM command
// scratch and link framing belong to the goroutine driving that link — the
// coordinator must not touch a link whose worker may be running the next
// wave's exchanges.
func (p *Pipeline) rehomePooled(addr uint64, blk oram.Block, exclude int, globalLeaves uint64) error {
	c := p.c
	c.tm.rehomes.Inc()
	if tr := c.tm.tracer; tr != nil {
		tr.Instant(0, "cluster.rehome", "cluster", map[string]any{"addr": addr, "exclude": exclude})
	}
	var lastErr error
	for try := 0; try < 8*len(c.buffers); try++ {
		g, err := p.pickLeafSnap(globalLeaves)
		if err != nil {
			return err
		}
		sd := int(g >> c.localBits)
		if sd == exclude {
			continue
		}
		nb := blk
		nb.Leaf = g & (uint64(1)<<c.localBits - 1)
		c.tm.rehomeAttempts.Inc()
		var ack []byte
		var xerr error
		p.pool.submitWG(sd, &p.rehomeWG, func() {
			ws := c.blame.WorkerBegin()
			defer c.blame.WorkerEnd(blame.WorkerAppend, ws)
			resp, err := c.exchange(sd, "rehome append", c.appendBody(sd, nb, false))
			if err != nil {
				xerr = err
				return
			}
			ack = append([]byte(nil), resp...)
		})
		p.rehomeWG.Wait()
		if xerr != nil {
			lastErr = xerr
			continue
		}
		if len(ack) != 1 || ack[0] != appendAck {
			return c.wrapErr(sd, "rehome append", fmt.Errorf("sdimm: malformed append ack %x", ack))
		}
		c.pos.Set(addr, g)
		return nil
	}
	if lastErr == nil {
		lastErr = errors.New("sdimm: no alternative SDIMM for in-flight block")
	}
	c.tm.rehomeFailures.Inc()
	return fmt.Errorf("sdimm: re-homing block %d failed: %w", addr, lastErr)
}

// drain admits whatever is already queued on in, up to the window, without
// blocking. It returns the updated buffer and whether in is closed.
func (p *Pipeline) drain(in <-chan *AsyncOp, buf []*AsyncOp) ([]*AsyncOp, bool) {
	for len(buf) < p.opts.Window {
		select {
		case a, ok := <-in:
			if !ok {
				return buf, true
			}
			buf = append(buf, a)
		default:
			return buf, false
		}
	}
	return buf, false
}

// fillBuf fills the window with no wave in flight: it waits indefinitely
// for a first op, drains whatever is already queued, then waits out the
// fill timeout for stragglers while the window stays partial. It returns
// the updated buffer and whether in is closed.
func (p *Pipeline) fillBuf(in <-chan *AsyncOp, buf []*AsyncOp, timer *time.Timer) ([]*AsyncOp, bool) {
	if len(buf) == 0 {
		a, ok := <-in
		if !ok {
			return buf, true
		}
		buf = append(buf, a)
	}
	buf, closed := p.drain(in, buf)
	if closed || len(buf) >= p.opts.Window || p.opts.FillTimeout < 0 {
		return buf, closed
	}
	timer.Reset(p.opts.FillTimeout)
	for len(buf) < p.opts.Window {
		select {
		case a, ok := <-in:
			if !ok {
				stopFillTimer(timer)
				return buf, true
			}
			buf = append(buf, a)
		case <-timer.C:
			return buf, false
		}
	}
	stopFillTimer(timer)
	return buf, false
}

// stopFillTimer stops a timer and drains a pending fire, leaving it safe to
// Reset. Stop() == false means the timer already fired, but the fire can
// still be in flight on the runtime's timer goroutine — a non-blocking drain
// would miss it and leave a stale value in t.C, which the next Reset'd wait
// would consume instantly, cutting that fill window short. Blocking is safe
// here: every caller invokes stopFillTimer only when the fire since the last
// Reset has not been consumed (the <-timer.C path in fillBuf returns without
// calling it), so the pending value is ours to take.
func stopFillTimer(t *time.Timer) {
	if !t.Stop() {
		<-t.C
	}
}
