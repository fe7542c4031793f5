package sdimm

import (
	"errors"
	"fmt"
	"sort"

	"sdimm/internal/durable"
	"sdimm/internal/fault"
	"sdimm/internal/flight"
	"sdimm/internal/oram"
	"sdimm/internal/rng"
	isdimm "sdimm/internal/sdimm"
)

// This file wires crash consistency (internal/durable) into both cluster
// flavours: journaling at the commit point, periodic checkpoints, and the
// recovery sequence restore → scrub → replay → probation. See DESIGN.md,
// "Durability & crash recovery", for the invariants.

// ErrUnrecoverable marks a block whose payload was lost to on-disk
// corruption that no redundancy could repair. Reads of such a block fail
// with this error (never silently return zeros); a successful write heals
// the address.
var ErrUnrecoverable = errors.New("sdimm: block lost to unrecoverable corruption")

// DurabilityOptions configures a cluster's crash consistency.
type DurabilityOptions struct {
	// Dir is the state directory (checkpoints + journal). One directory
	// belongs to one cluster shape; recovery refuses mismatches.
	Dir string
	// Key authenticates every durable file (HMAC). Empty derives a key from
	// the cluster key — fine for simulation, but state then shares trust
	// with the bucket keys.
	Key []byte
	// Interval is the checkpoint cadence in committed accesses (default
	// 256). Recovery replays at most this many journal records.
	Interval int
	// Sync fsyncs every commit, and the state directory at each checkpoint
	// (after the rename and the journal rotation, before pruning). Off by
	// default: the chaos harness simulates crashes by tearing the journal
	// itself, and seeded sweeps stay fast.
	Sync bool
}

func (o *DurabilityOptions) withDefaults(clusterKey []byte) DurabilityOptions {
	d := *o
	if len(d.Key) == 0 {
		d.Key = append([]byte("durable|"), clusterKey...)
	}
	if d.Interval <= 0 {
		d.Interval = 256
	}
	return d
}

// independentFingerprint pins an Independent cluster's shape. opts must be
// defaulted. Ring-eviction clusters get their own kind (including the flush
// interval): their engines hold extra durable state (eviction pointer,
// dead-slot masks) that a path-mode recovery could not interpret.
func independentFingerprint(opts ClusterOptions) durable.Fingerprint {
	kind := "independent"
	if opts.RingFlushInterval > 0 {
		kind = fmt.Sprintf("independent-ring%d", opts.RingFlushInterval)
	}
	return durable.Fingerprint{
		Kind:      kind,
		Members:   opts.SDIMMs,
		Levels:    opts.Levels,
		BlockSize: opts.BlockSize,
		Z:         opts.Z,
		Seed:      opts.Seed,
	}
}

// splitFingerprint pins a Split cluster's shape. opts must be defaulted.
func splitFingerprint(opts SplitClusterOptions) durable.Fingerprint {
	return durable.Fingerprint{
		Kind:      "split",
		Members:   opts.SDIMMs,
		Levels:    opts.Levels,
		BlockSize: opts.BlockSize,
		Z:         4,
		Seed:      opts.Seed,
		Parity:    opts.Parity,
	}
}

// durableState is the durability bookkeeping embedded in both cluster
// flavours. seq counts committed logical records of every kind (workload
// accesses, migration steps, topology changes); poisoned tracks addresses
// lost to unrecoverable corruption (always allocated, usually empty).
type durableState struct {
	dur        *durable.Manager
	interval   int
	seq        uint64
	lastCkpt   uint64
	replaying  bool
	poisoned   map[uint64]bool
	recScratch [1]durable.Record // commitRecord's singleton batch

	// Elastic-membership bookkeeping. migSeq/topoSeq partition seq so
	// drivers can recover their workload position from durable state alone:
	// WorkloadSeq() = seq - migSeq - topoSeq. At most one drain runs at a
	// time; drainMember is -1 outside a drain. migrating flags the access
	// currently executing as a rebalance migration step (it journals as
	// KindMigrate instead of KindRead).
	migSeq       uint64
	topoSeq      uint64
	drainMember  int
	drainMoved   uint64
	migrating    bool
	incarnations []uint64 // per-slot join count (0 = founding member)
	detached     []bool   // slots whose member was removed, not yet replaced

	// ckpt is captureCheckpoint's scratch, reused so a checkpoint does not
	// reallocate its per-member bucket lists. It holds borrowed bucket views
	// only between capture and writeCheckpoint, which empties it.
	ckpt durable.Checkpoint
}

// initElastic sets up the elastic-membership fields for members slots.
// Called by both cluster builders (the zero value of drainMember would
// otherwise mean "slot 0 is draining").
func (d *durableState) initElastic(members int) {
	d.drainMember = -1
	d.incarnations = make([]uint64, members)
	d.detached = make([]bool, members)
}

// Seq returns the number of committed logical records (workload accesses
// plus migration and topology records). With durability attached, every
// record with sequence number ≤ Seq survives a crash.
func (d *durableState) Seq() uint64 { return d.seq }

// WorkloadSeq returns the number of committed workload accesses — Seq
// minus the migration and topology records sharing the stream. Drivers use
// it to locate their position in an operation list after recovery.
func (d *durableState) WorkloadSeq() uint64 { return d.seq - d.migSeq - d.topoSeq }

// MigrationSeq returns the lifetime count of committed migration steps.
func (d *durableState) MigrationSeq() uint64 { return d.migSeq }

// Draining reports the member currently being drained (-1 if none) and how
// many migration steps have committed for that drain.
func (d *durableState) Draining() (member int, moved uint64) {
	return d.drainMember, d.drainMoved
}

// Incarnation returns how many times slot i has been (re)populated: 0 for
// the founding member, +1 per join.
func (d *durableState) Incarnation(i int) uint64 {
	if i < 0 || i >= len(d.incarnations) {
		return 0
	}
	return d.incarnations[i]
}

// Detached reports whether slot i's member was removed and not replaced.
func (d *durableState) Detached(i int) bool {
	return i >= 0 && i < len(d.detached) && d.detached[i]
}

// crashedNow reports whether a planned crash point has fired — the cluster
// is "dead" and refuses further work.
func (d *durableState) crashedNow() bool { return d.dur != nil && d.dur.Crashed() }

// attachDurability opens the state directory. Shared by construction and
// recovery.
func (d *durableState) attachDurability(opts *DurabilityOptions, fp durable.Fingerprint, clusterKey []byte) error {
	do := opts.withDefaults(clusterKey)
	m, err := durable.Open(do.Dir, do.Key, fp, fp.BlockSize, do.Sync)
	if err != nil {
		return err
	}
	d.dur = m
	d.interval = do.Interval
	return nil
}

// makeRecord advances the committed sequence for one access and returns its
// journal record. A committed write heals a poisoned address — the lost
// payload is fully overwritten. While migrating is set, reads journal as
// KindMigrate and advance the drain progress instead of the workload count.
func (d *durableState) makeRecord(addr uint64, op oram.Op, data []byte) durable.Record {
	d.seq++
	kind := durable.KindRead
	if op == oram.OpWrite {
		delete(d.poisoned, addr)
		kind = durable.KindWrite
	} else if d.migrating {
		kind = durable.KindMigrate
		d.migSeq++
		if d.drainMember >= 0 {
			d.drainMoved++
		}
	}
	return durable.Record{Seq: d.seq, Addr: addr, Kind: kind, Data: data}
}

// commitTopoRecord journals one topology change (drain begin/end, join) at
// its commit point. Topology records carry the member slot in Addr and no
// payload; they advance seq and topoSeq so WorkloadSeq stays the pure
// workload count. During replay the in-memory apply already happened, so
// only the counters advance.
func (d *durableState) commitTopoRecord(kind durable.RecordKind, member int) error {
	d.seq++
	d.topoSeq++
	if d.dur == nil || d.replaying {
		return nil
	}
	d.recScratch[0] = durable.Record{Seq: d.seq, Addr: uint64(member), Kind: kind}
	err := d.dur.Append(d.recScratch[:])
	d.recScratch[0] = durable.Record{}
	return err
}

// appendRecords journals a batch of records made by makeRecord. No-op
// without durability and during replay (replay re-executes history that is
// already on disk).
func (d *durableState) appendRecords(recs []durable.Record) error {
	if d.dur == nil || d.replaying || len(recs) == 0 {
		return nil
	}
	return d.dur.Append(recs)
}

// commitRecord journals one access at its commit point.
func (d *durableState) commitRecord(addr uint64, op oram.Op, data []byte) error {
	rec := d.makeRecord(addr, op, data)
	if d.dur == nil || d.replaying {
		return nil
	}
	// Singleton batch in place: the record is encoded synchronously, so the
	// scratch (and its payload reference) is dropped before return.
	d.recScratch[0] = rec
	err := d.dur.Append(d.recScratch[:])
	d.recScratch[0] = durable.Record{}
	return err
}

// checkpointDue reports that the checkpoint interval has elapsed. The
// pipeline polls it at wave boundaries to decide when to stall the schedule
// and drain for a quiescent capture; the sequential path checks it through
// maybeCheckpoint after every access.
func (d *durableState) checkpointDue() bool {
	return d.dur != nil && !d.replaying && d.seq-d.lastCkpt >= uint64(d.interval)
}

// maybeCheckpoint runs force when the checkpoint interval has elapsed.
func (d *durableState) maybeCheckpoint(force func() error) error {
	if !d.checkpointDue() {
		return nil
	}
	return force()
}

// PlanCrash arms a simulated crash after afterRecords more journal records,
// tearing the next record at tearBytes bytes (chaos harness hook).
func (d *durableState) PlanCrash(afterRecords, tearBytes int) error {
	if d.dur == nil {
		return errors.New("sdimm: PlanCrash without durability")
	}
	d.dur.PlanCrash(afterRecords, tearBytes)
	return nil
}

// capturePositions snapshots a position map sorted by address.
func capturePositions(pos oram.PositionMap) []durable.PosEntry {
	out := make([]durable.PosEntry, 0, pos.Len())
	pos.Each(func(a, l uint64) { out = append(out, durable.PosEntry{Addr: a, Value: l}) })
	sort.Slice(out, func(i, j int) bool { return out[i].Addr < out[j].Addr })
	return out
}

// capturePoisoned snapshots the poison set sorted.
func capturePoisoned(p map[uint64]bool) []uint64 {
	out := make([]uint64, 0, len(p))
	for a := range p {
		out = append(out, a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// captureBlocks converts engine/buffer blocks into checkpoint form.
func captureBlocks(blocks []oram.Block) []durable.BlockState {
	out := make([]durable.BlockState, len(blocks))
	for i, b := range blocks {
		out[i] = durable.BlockState{Addr: b.Addr, Leaf: b.Leaf, Data: b.Data}
	}
	return out
}

// restoreBlocks is captureBlocks' inverse.
func restoreBlocks(blocks []durable.BlockState) []oram.Block {
	out := make([]oram.Block, len(blocks))
	for i, b := range blocks {
		out[i] = oram.Block{Addr: b.Addr, Leaf: b.Leaf, Data: b.Data}
	}
	return out
}

// memStore unwraps a buffer's functional store.
func memStore(b *isdimm.Buffer) *oram.MemStore {
	return b.Engine().Store().(*oram.MemStore)
}

// captureMember snapshots one buffer (and its health record) into m,
// reusing m's bucket list. The sealed bucket bytes are borrowed views of
// the store (MemStore.RawBucket), not copies: they stay valid while the
// cluster is quiescent, which holds for the whole of WriteCheckpoint, and
// the next access reseals them in place.
func captureMember(m *durable.MemberState, b *isdimm.Buffer, h *fault.Health) {
	buckets := m.Buckets[:0]
	*m = durable.MemberState{
		EngineRNG: b.Engine().RandState(),
		BufferRNG: b.RandState(),
		Stash:     captureBlocks(b.Engine().StashBlocks()),
		Transfer:  captureBlocks(b.TransferBlocks()),
		Ring:      b.Engine().RingSnapshot(),
	}
	ms := memStore(b)
	for _, idx := range ms.BucketIndices() {
		raw, _ := ms.RawBucket(idx)
		buckets = append(buckets, durable.BucketState{Idx: idx, Raw: raw})
	}
	m.Buckets = buckets
	succ, fail := h.Totals()
	m.Health = durable.HealthState{
		State:       int(h.State()),
		Consecutive: h.Consecutive(),
		Successes:   succ,
		Failures:    fail,
	}
}

// captureCheckpoint snapshots the state both cluster flavours share into
// the reused checkpoint scratch: the coordinator RNG, position map, poison
// set, record counters and drain, and per member its buffer, health,
// incarnation and detached flag (members index-aligned with health). Call
// it only with the cluster quiescent, and persist the result before the
// next access: its bucket bytes are borrowed from the stores.
func (d *durableState) captureCheckpoint(rnd *rng.Source, pos oram.PositionMap, members []*isdimm.Buffer, health []*fault.Health) *durable.Checkpoint {
	cp := &d.ckpt
	ms := cp.Members
	if cap(ms) < len(members) {
		ms = make([]durable.MemberState, len(members))
	}
	ms = ms[:len(members)]
	*cp = durable.Checkpoint{
		Seq:       d.seq,
		RNG:       rnd.State(),
		Positions: capturePositions(pos),
		Poisoned:  capturePoisoned(d.poisoned),
		MigSeq:    d.migSeq,
		TopoSeq:   d.topoSeq,
		Members:   ms,
	}
	if d.drainMember >= 0 {
		cp.Drains = []durable.DrainState{{Member: uint64(d.drainMember), Moved: d.drainMoved}}
	}
	for i, b := range members {
		captureMember(&ms[i], b, health[i])
		ms[i].Incarnation = d.incarnations[i]
		ms[i].Detached = d.detached[i]
	}
	return cp
}

// writeCheckpoint persists a captured checkpoint, rotating the journal.
// Written or not, the scratch then lets go of the borrowed bucket views and
// the captured state, keeping only the member and bucket lists' capacity
// for the next capture.
func (d *durableState) writeCheckpoint(cp *durable.Checkpoint) error {
	err := d.dur.WriteCheckpoint(cp)
	for i := range cp.Members {
		clear(cp.Members[i].Buckets)
		cp.Members[i] = durable.MemberState{Buckets: cp.Members[i].Buckets[:0]}
	}
	*cp = durable.Checkpoint{Members: cp.Members}
	if err != nil {
		return err
	}
	d.lastCkpt = d.seq
	return nil
}

// restoreMember loads one buffer (and its health record) from checkpoint
// form.
func restoreMember(b *isdimm.Buffer, h *fault.Health, m durable.MemberState) error {
	b.Engine().RestoreRandState(m.EngineRNG)
	b.RestoreRandState(m.BufferRNG)
	if err := b.Engine().RestoreStash(restoreBlocks(m.Stash)); err != nil {
		return err
	}
	if err := b.RestoreTransfer(restoreBlocks(m.Transfer)); err != nil {
		return err
	}
	if err := b.Engine().RestoreRingSnapshot(m.Ring); err != nil {
		return err
	}
	ms := memStore(b)
	for _, bk := range m.Buckets {
		if err := ms.RestoreRaw(bk.Idx, bk.Raw); err != nil {
			return err
		}
	}
	h.Restore(fault.State(m.Health.State), m.Health.Consecutive, m.Health.Successes, m.Health.Failures)
	return nil
}

// --- Independent cluster ---

// ForceCheckpoint captures the cluster's full state and persists it,
// rotating the journal. Callable any time the cluster is quiescent.
func (c *Cluster) ForceCheckpoint() error {
	if c.dur == nil {
		return errors.New("sdimm: ForceCheckpoint without durability")
	}
	if err := c.writeCheckpoint(c.capture()); err != nil {
		return err
	}
	c.tm.checkpoints.Inc()
	c.flight.Coordinator().Record(flight.KindCheckpoint, c.seq, 0)
	return nil
}

// capture snapshots the cluster into the checkpoint scratch: the shared
// state plus each member's link counters.
func (c *Cluster) capture() *durable.Checkpoint {
	cp := c.captureCheckpoint(c.rnd, c.pos, c.buffers, c.health)
	for i := range cp.Members {
		m := &cp.Members[i]
		m.HostSend = c.links[i].Host.SendCounter()
		m.HostRecv = c.links[i].Host.RecvCounter()
		m.DevSend = c.links[i].Dev.SendCounter()
		m.DevRecv = c.links[i].Dev.RecvCounter()
	}
	return cp
}

// CorruptBucket flips a ciphertext bit in the k-th materialized bucket
// (sorted by index) of member sd's store and returns the bucket index
// (chaos harness hook for scrub testing). False when the member has no
// materialized buckets.
func (c *Cluster) CorruptBucket(sd, k int) (uint64, bool) {
	if sd < 0 || sd >= len(c.buffers) {
		return 0, false
	}
	ms := memStore(c.buffers[sd])
	idxs := ms.BucketIndices()
	if len(idxs) == 0 {
		return 0, false
	}
	idx := idxs[k%len(idxs)]
	return idx, ms.Corrupt(idx)
}

// restoreCheckpoint loads cp into the (freshly constructed) cluster.
func (c *Cluster) restoreCheckpoint(cp *durable.Checkpoint) error {
	if len(cp.Members) != len(c.buffers) {
		return fmt.Errorf("sdimm: checkpoint has %d members, cluster has %d", len(cp.Members), len(c.buffers))
	}
	c.seq = cp.Seq
	c.lastCkpt = cp.Seq
	c.rnd.Restore(cp.RNG)
	for _, p := range cp.Positions {
		c.pos.Set(p.Addr, p.Value)
	}
	c.poisoned = make(map[uint64]bool, len(cp.Poisoned))
	for _, a := range cp.Poisoned {
		c.poisoned[a] = true
	}
	c.migSeq = cp.MigSeq
	c.topoSeq = cp.TopoSeq
	c.drainMember, c.drainMoved = -1, 0
	if len(cp.Drains) > 0 {
		if len(cp.Drains) > 1 {
			return fmt.Errorf("sdimm: checkpoint records %d concurrent drains, at most 1 supported", len(cp.Drains))
		}
		c.drainMember = int(cp.Drains[0].Member)
		c.drainMoved = cp.Drains[0].Moved
		if c.drainMember < 0 || c.drainMember >= len(c.buffers) {
			return fmt.Errorf("sdimm: checkpoint drain member %d out of range", c.drainMember)
		}
	}
	for i, m := range cp.Members {
		// A member that joined after the founding generation has
		// incarnation-derived store keys and a distinct device identity —
		// rebuild it before restoring its state into place.
		if m.Incarnation != c.incarnations[i] {
			if err := c.mkMember(i, m.Incarnation); err != nil {
				return err
			}
			c.incarnations[i] = m.Incarnation
		}
		c.detached[i] = m.Detached
		if err := restoreMember(c.buffers[i], c.health[i], m); err != nil {
			return err
		}
		// The links run fresh post-restart ECDH sessions (new keys, so
		// restored counters can never reuse a pad); restoring the counters
		// forward keeps both endpoints in lockstep and the counters
		// monotonic across the crash.
		if err := c.links[i].Host.RestoreCounters(m.HostSend, m.HostRecv); err != nil {
			return err
		}
		if err := c.links[i].Dev.RestoreCounters(m.DevSend, m.DevRecv); err != nil {
			return err
		}
	}
	return nil
}

// scrub runs the post-restore PMMAC pass over every member's tree: verify
// every materialized bucket, quarantine the ones whose tag fails, and
// poison any mapped address whose block can no longer be found anywhere
// (corrupt bucket on its path, not in the stash or transfer queue). The
// Independent protocol has no cross-SDIMM redundancy, so a corrupt bucket
// is always unrecoverable — the pass bounds the damage to provably-lost
// addresses and keeps the tree navigable.
func (c *Cluster) scrub(report *durable.RecoveryReport) error {
	corrupt := make([]map[uint64]bool, len(c.buffers))
	for i, b := range c.buffers {
		ms := memStore(b)
		for _, idx := range ms.BucketIndices() {
			report.BucketsScanned++
			if _, err := ms.ReadBucket(idx); err != nil {
				if !errors.Is(err, oram.ErrIntegrity) {
					return err
				}
				if corrupt[i] == nil {
					corrupt[i] = make(map[uint64]bool)
				}
				corrupt[i][idx] = true
			}
		}
	}
	for i, set := range corrupt {
		if len(set) == 0 {
			continue
		}
		ms := memStore(c.buffers[i])
		idxs := make([]uint64, 0, len(set))
		for idx := range set {
			idxs = append(idxs, idx)
		}
		sort.Slice(idxs, func(a, b int) bool { return idxs[a] < idxs[b] })
		for _, idx := range idxs {
			// Quarantine: overwrite with an all-dummy bucket so path reads
			// stay serviceable. The lost contents are handled by poisoning.
			if err := ms.WriteBucket(idx, oram.NewBucket(ms.Z())); err != nil {
				return err
			}
			report.BucketsUnrecoverable++
		}
	}

	// Poison pass, in sorted address order (no RNG, so recovery stays
	// deterministic): an address is lost iff a corrupt bucket lay on its
	// path and the block is in neither the stash, the transfer queue, nor a
	// healthy path bucket.
	mask := uint64(1)<<c.localBits - 1
	for _, e := range capturePositions(c.pos) {
		sd := int(e.Value >> c.localBits)
		set := corrupt[sd]
		if len(set) == 0 {
			continue
		}
		b := c.buffers[sd]
		path := b.Engine().Geometry().Path(e.Value&mask, nil)
		touched := false
		for _, idx := range path {
			if set[idx] {
				touched = true
				break
			}
		}
		if !touched {
			continue
		}
		if _, ok := b.Engine().StashGet(e.Addr); ok {
			continue
		}
		if _, ok := b.TransferQueueSearch(e.Addr); ok {
			continue
		}
		found := false
		ms := memStore(b)
		for _, idx := range path {
			if set[idx] {
				continue
			}
			// Ring engines invalidate slots in place when a read lifts the
			// block; a dead slot is a stale copy, not a live one.
			dead := b.Engine().RingInvalidSlots(idx)
			bkt, err := ms.ReadBucket(idx)
			if err != nil {
				return err
			}
			for si, slot := range bkt.Slots {
				if slot.Addr == e.Addr && dead&(1<<uint(si)) == 0 {
					found = true
					break
				}
			}
			if found {
				break
			}
		}
		if !found {
			c.poisoned[e.Addr] = true
			report.Poisoned = append(report.Poisoned, e.Addr)
		}
	}
	return nil
}

// RecoverCluster rebuilds a durable Independent cluster from its state
// directory: construct fresh (new link sessions), load the newest valid
// checkpoint, scrub every bucket's PMMAC tag, replay the journal to the
// last committed access, put all members into Recovering probation, and
// persist a post-recovery checkpoint — only then is traffic admitted.
//
// The scrub runs before replay on purpose: replay re-executes accesses
// against the restored image, so the image must be navigable first, and a
// replayed write to a poisoned address heals it exactly as the original
// execution did.
func RecoverCluster(opts ClusterOptions) (*Cluster, *durable.RecoveryReport, error) {
	opts = opts.withDefaults()
	if opts.Durability == nil {
		return nil, nil, errors.New("sdimm: RecoverCluster requires Durability options")
	}
	c, err := buildCluster(opts)
	if err != nil {
		return nil, nil, err
	}
	if err := c.attachDurability(opts.Durability, independentFingerprint(opts), opts.Key); err != nil {
		return nil, nil, err
	}
	cp, recs, report, err := c.dur.Recover()
	if err != nil {
		return nil, nil, err
	}
	if err := c.restoreCheckpoint(cp); err != nil {
		return nil, nil, err
	}
	if err := c.scrub(report); err != nil {
		return nil, nil, err
	}
	c.replaying = true
	for _, rec := range recs {
		if rec.Seq != c.seq+1 {
			c.replaying = false
			return nil, nil, fmt.Errorf("sdimm: replay record %d does not follow committed seq %d", rec.Seq, c.seq)
		}
		var err error
		switch rec.Kind {
		case durable.KindRead:
			_, err = c.access(rec.Addr, oram.OpRead, nil)
		case durable.KindWrite:
			_, err = c.access(rec.Addr, oram.OpWrite, rec.Data)
		case durable.KindMigrate:
			c.migrating = true
			_, err = c.access(rec.Addr, oram.OpRead, nil)
			c.migrating = false
		case durable.KindDrainBegin:
			err = c.applyDrainBegin(int(rec.Addr))
		case durable.KindDrainEnd:
			err = c.applyDetach(int(rec.Addr))
		case durable.KindJoin:
			err = c.applyJoin(int(rec.Addr))
		default:
			err = fmt.Errorf("sdimm: unknown record kind %d", rec.Kind)
		}
		if err != nil {
			c.replaying = false
			return nil, nil, fmt.Errorf("sdimm: replay record %d (seq %d, kind %d): %w", rec.Addr, rec.Seq, rec.Kind, err)
		}
		c.tm.replayed.Inc()
	}
	c.replaying = false
	for _, h := range c.health {
		h.MarkRecovering()
	}
	if err := c.ForceCheckpoint(); err != nil {
		return nil, nil, err
	}
	c.tm.scrubScanned.Add(uint64(report.BucketsScanned))
	c.tm.scrubRepaired.Add(uint64(report.BucketsRepaired))
	c.tm.scrubUnrecoverable.Add(uint64(report.BucketsUnrecoverable))
	c.flight.Coordinator().Record(flight.KindRecovery, uint64(report.RecordsReplayed), uint64(report.BucketsRepaired))
	return c, report, nil
}

// --- Split cluster ---

// allMembers returns the data shards followed by the parity member (when
// present) — index-aligned with c.health.
func (c *SplitCluster) allMembers() []*isdimm.Buffer {
	out := append([]*isdimm.Buffer(nil), c.buffers...)
	if c.parity != nil {
		out = append(out, c.parity)
	}
	return out
}

// ForceCheckpoint captures the cluster's full state and persists it,
// rotating the journal.
func (c *SplitCluster) ForceCheckpoint() error {
	if c.dur == nil {
		return errors.New("sdimm: ForceCheckpoint without durability")
	}
	if err := c.writeCheckpoint(c.captureCheckpoint(c.rnd, c.pos, c.allMembers(), c.health)); err != nil {
		return err
	}
	c.tm.checkpoints.Inc()
	return nil
}

// CorruptBucket flips a ciphertext bit in the k-th materialized bucket of
// member i (data shards 0..SDIMMs-1; SDIMMs = parity) and returns the
// bucket index.
func (c *SplitCluster) CorruptBucket(member, k int) (uint64, bool) {
	members := c.allMembers()
	if member < 0 || member >= len(members) {
		return 0, false
	}
	ms := memStore(members[member])
	idxs := ms.BucketIndices()
	if len(idxs) == 0 {
		return 0, false
	}
	idx := idxs[k%len(idxs)]
	return idx, ms.Corrupt(idx)
}

// restoreCheckpoint loads cp into the (freshly constructed) cluster.
func (c *SplitCluster) restoreCheckpoint(cp *durable.Checkpoint) error {
	members := c.allMembers()
	if len(cp.Members) != len(members) {
		return fmt.Errorf("sdimm: checkpoint has %d members, cluster has %d", len(cp.Members), len(members))
	}
	c.seq = cp.Seq
	c.lastCkpt = cp.Seq
	c.rnd.Restore(cp.RNG)
	for _, p := range cp.Positions {
		c.pos.Set(p.Addr, p.Value)
	}
	c.poisoned = make(map[uint64]bool, len(cp.Poisoned))
	for _, a := range cp.Poisoned {
		c.poisoned[a] = true
	}
	c.migSeq = cp.MigSeq
	c.topoSeq = cp.TopoSeq
	for i, m := range cp.Members {
		// A replacement member's store keys derive from its incarnation —
		// rebuild the buffer before restoring state into it.
		if m.Incarnation != c.incarnations[i] {
			buf, err := c.mkShardMember(i, m.Incarnation)
			if err != nil {
				return err
			}
			if i < len(c.buffers) {
				c.buffers[i] = buf
			} else {
				c.parity = buf
			}
			c.incarnations[i] = m.Incarnation
		}
	}
	members = c.allMembers()
	for i, m := range cp.Members {
		if err := restoreMember(members[i], c.health[i], m); err != nil {
			return err
		}
	}
	return nil
}

// scrub verifies every member's buckets and repairs corrupt ones from the
// other shards. Shard trees evolve in lockstep, so for any bucket index the
// slot headers and write counter agree across members, and the parity
// member's data is the XOR of the data shards' — a single corrupt member's
// bucket is rebuilt bit-exactly (XOR of all healthy members' slot data,
// resealed under the sibling counter). With no parity, or more than one
// corrupt member for the same bucket, the affected members are marked
// Failed and the damage is reported unrecoverable.
func (c *SplitCluster) scrub(report *durable.RecoveryReport) error {
	members := c.allMembers()
	idxSet := make(map[uint64]bool)
	for _, b := range members {
		for _, idx := range memStore(b).BucketIndices() {
			idxSet[idx] = true
		}
	}
	idxs := make([]uint64, 0, len(idxSet))
	for idx := range idxSet {
		idxs = append(idxs, idx)
	}
	sort.Slice(idxs, func(i, j int) bool { return idxs[i] < idxs[j] })

	for _, idx := range idxs {
		buckets := make([]oram.Bucket, len(members))
		var bad, good []int
		for mi, b := range members {
			report.BucketsScanned++
			bkt, err := memStore(b).ReadBucket(idx)
			if err != nil {
				if !errors.Is(err, oram.ErrIntegrity) {
					return err
				}
				bad = append(bad, mi)
				continue
			}
			buckets[mi] = bkt
			good = append(good, mi)
		}
		if len(bad) == 0 {
			continue
		}
		if c.parity == nil || len(bad) > 1 || len(good) == 0 {
			report.BucketsUnrecoverable += len(bad)
			for _, mi := range bad {
				c.health[mi].MarkFailed(fmt.Errorf("sdimm: bucket %d unrecoverable on member %d: %w", idx, mi, oram.ErrIntegrity))
			}
			continue
		}
		target := bad[0]
		tpl := buckets[good[0]]
		rebuilt := oram.NewBucket(len(tpl.Slots))
		for s := range tpl.Slots {
			rebuilt.Slots[s].Addr = tpl.Slots[s].Addr
			rebuilt.Slots[s].Leaf = tpl.Slots[s].Leaf
			if rebuilt.Slots[s].IsDummy() {
				continue
			}
			data := make([]byte, c.shard)
			for _, mi := range good {
				d := buckets[mi].Slots[s].Data
				for j := range data {
					data[j] ^= d[j]
				}
			}
			rebuilt.Slots[s].Data = data
		}
		counter := memStore(members[good[0]]).Counter(idx)
		if err := memStore(members[target]).PutBucketAt(idx, rebuilt, counter); err != nil {
			return err
		}
		report.BucketsRepaired++
	}
	return nil
}

// RecoverSplitCluster rebuilds a durable Split cluster from its state
// directory, mirroring RecoverCluster: restore → parity scrub → journal
// replay → probation → post-recovery checkpoint.
func RecoverSplitCluster(opts SplitClusterOptions) (*SplitCluster, *durable.RecoveryReport, error) {
	opts = opts.withDefaults()
	if opts.Durability == nil {
		return nil, nil, errors.New("sdimm: RecoverSplitCluster requires Durability options")
	}
	c, err := buildSplitCluster(opts)
	if err != nil {
		return nil, nil, err
	}
	if err := c.attachDurability(opts.Durability, splitFingerprint(opts), opts.Key); err != nil {
		return nil, nil, err
	}
	cp, recs, report, err := c.dur.Recover()
	if err != nil {
		c.Close()
		return nil, nil, err
	}
	if err := c.restoreCheckpoint(cp); err != nil {
		c.Close()
		return nil, nil, err
	}
	if err := c.scrub(report); err != nil {
		c.Close()
		return nil, nil, err
	}
	c.replaying = true
	for _, rec := range recs {
		if rec.Seq != c.seq+1 {
			c.replaying = false
			c.Close()
			return nil, nil, fmt.Errorf("sdimm: replay record %d does not follow committed seq %d", rec.Seq, c.seq)
		}
		var err error
		switch rec.Kind {
		case durable.KindRead:
			_, err = c.access(rec.Addr, oram.OpRead, nil)
		case durable.KindWrite:
			_, err = c.access(rec.Addr, oram.OpWrite, rec.Data)
		case durable.KindJoin:
			err = c.applySplitJoin(int(rec.Addr))
		default:
			// The split protocol has no routing, so drains and migrations
			// never occur; replacement is the only topology change.
			err = fmt.Errorf("sdimm: record kind %d unsupported by split clusters", rec.Kind)
		}
		if err != nil {
			c.replaying = false
			c.Close()
			return nil, nil, fmt.Errorf("sdimm: replay record %d (seq %d, kind %d): %w", rec.Addr, rec.Seq, rec.Kind, err)
		}
		c.tm.replayed.Inc()
	}
	c.replaying = false
	for _, h := range c.health {
		h.MarkRecovering()
	}
	if err := c.ForceCheckpoint(); err != nil {
		c.Close()
		return nil, nil, err
	}
	c.tm.scrubScanned.Add(uint64(report.BucketsScanned))
	c.tm.scrubRepaired.Add(uint64(report.BucketsRepaired))
	c.tm.scrubUnrecoverable.Add(uint64(report.BucketsUnrecoverable))
	return c, report, nil
}
