package sdimm

import (
	"errors"
	"fmt"
	"strconv"
	"sync"

	"sdimm/internal/blame"
	"sdimm/internal/durable"
	"sdimm/internal/fault"
	"sdimm/internal/flight"
	"sdimm/internal/oram"
	"sdimm/internal/rng"
	isdimm "sdimm/internal/sdimm"
	"sdimm/internal/seccomm"
	"sdimm/internal/telemetry"
)

// ClusterOptions sizes a distributed functional ORAM (the Independent
// protocol of Section III-C with real payloads and real link cryptography).
type ClusterOptions struct {
	// SDIMMs is the number of secure buffers; must be a power of two ≥ 2.
	SDIMMs int
	// Levels is the global tree height (each SDIMM holds a subtree of
	// Levels - log2(SDIMMs) levels).
	Levels int
	// BlockSize is the payload bytes per block (default 64).
	BlockSize int
	// Z is the bucket capacity (default 4).
	Z int
	// RingFlushInterval, when > 0, runs every member's engine in
	// ring-eviction mode: reads lift only the target block off the path and
	// writeback is deferred to a deterministic reverse-lexicographic
	// eviction pointer that flushes one path per RingFlushInterval accesses
	// (see DESIGN.md, Backends). 0 keeps the Path ORAM engines. Requires
	// Z ≥ 2 (each written bucket reserves dummy slots).
	RingFlushInterval int
	// Key seeds the bucket encryption/MAC keys.
	Key []byte
	// Seed drives leaf assignment (0 uses 1).
	Seed uint64
	// Faults optionally injects deterministic channel faults between
	// seccomm Seal and Open (nil = perfect links).
	Faults *fault.Injector
	// Retry bounds per-exchange retransmission and backoff (zero value =
	// defaults: 8 attempts, 50µs base backoff, 5ms cap).
	Retry fault.RetryPolicy
	// DegradeAfter marks a buffer Degraded after this many consecutive
	// failed exchanges (default 3).
	DegradeAfter int
	// LinkTap, when set, observes every frame put on a link before fault
	// injection (attempt 0 = original transmission, >0 = retransmission).
	// The chaos harness uses it to assert retries never change the
	// observable traffic.
	LinkTap func(sd int, dir fault.Direction, attempt int, frame []byte)
	// Telemetry, when set, receives cluster.* access counters, fault.*
	// link-recovery counters, seccomm.* crypto counters, and per-SDIMM
	// health-state gauges with transition counts.
	Telemetry *telemetry.Registry
	// Tracer, when set, records one span per access plus instants for
	// re-homing and health transitions (wall-clock microseconds — the
	// functional cluster has no simulated clock).
	Tracer *telemetry.Tracer
	// Blame, when set, receives per-wave phase intervals and per-SDIMM
	// worker busy spans from the batched pipeline, feeding the
	// critical-path profiler and its serialization ledger (see
	// internal/blame). Attaching a collector never changes cluster
	// behaviour — it draws no randomness and touches no shared state.
	Blame *blame.Collector
	// Flight, when set, is the always-on flight recorder: pipeline wave and
	// phase edges land on the coordinator ring, health transitions and
	// link retry/ARQ activity on the owning SDIMM's ring. Recording is
	// allocation-free; harnesses dump the rings when a check goes red.
	Flight *flight.Recorder
	// Durability, when set, gives the cluster crash consistency: every
	// committed access is journaled, state is checkpointed every Interval
	// accesses, and RecoverCluster can rebuild the cluster from the state
	// directory after a crash (see DESIGN.md, Durability & crash recovery).
	Durability *DurabilityOptions
}

// withDefaults normalizes the option fields that have defaults, so every
// consumer (construction, fingerprinting, recovery) sees the same values.
func (o ClusterOptions) withDefaults() ClusterOptions {
	if o.BlockSize == 0 {
		o.BlockSize = 64
	}
	if o.Z == 0 {
		o.Z = 4
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

// clusterTelemetry bundles the handles a functional cluster updates. All
// handles come from a (possibly nil) registry, so they are always valid —
// with no registry they are unregistered orphans and updates are harmless.
type clusterTelemetry struct {
	accesses, reads, writes, errors *telemetry.Counter
	rehomes, rehomeFailures         *telemetry.Counter
	rehomeAttempts                  *telemetry.Counter
	appendsLost                     *telemetry.Counter
	migrations                      *telemetry.Counter
	reconstructions                 *telemetry.Counter
	checkpoints                     *telemetry.Counter
	replayed                        *telemetry.Counter
	scrubScanned, scrubRepaired     *telemetry.Counter
	scrubUnrecoverable              *telemetry.Counter
	poisonedReads                   *telemetry.Counter
	tracer                          *telemetry.Tracer
}

func newClusterTelemetry(reg *telemetry.Registry, tr *telemetry.Tracer) clusterTelemetry {
	return clusterTelemetry{
		accesses:           reg.Counter("cluster.accesses"),
		reads:              reg.Counter("cluster.reads"),
		writes:             reg.Counter("cluster.writes"),
		errors:             reg.Counter("cluster.errors"),
		rehomes:            reg.Counter("cluster.rehomes"),
		rehomeFailures:     reg.Counter("cluster.rehome_failures"),
		rehomeAttempts:     reg.Counter("cluster.rehome_attempts"),
		appendsLost:        reg.Counter("cluster.appends_lost"),
		migrations:         reg.Counter("cluster.migrations"),
		reconstructions:    reg.Counter("cluster.reconstructions"),
		checkpoints:        reg.Counter("cluster.checkpoints"),
		replayed:           reg.Counter("cluster.recovery.replayed"),
		scrubScanned:       reg.Counter("cluster.scrub.scanned"),
		scrubRepaired:      reg.Counter("cluster.scrub.repaired"),
		scrubUnrecoverable: reg.Counter("cluster.scrub.unrecoverable"),
		poisonedReads:      reg.Counter("cluster.poisoned_reads"),
		tracer:             tr,
	}
}

// observe records one completed top-level access.
func (t *clusterTelemetry) observe(op oram.Op, err error) {
	t.accesses.Inc()
	if op == oram.OpRead {
		t.reads.Inc()
	} else {
		t.writes.Inc()
	}
	if err != nil {
		t.errors.Inc()
	}
}

// watchHealth publishes h's state as a per-SDIMM gauge (values: 0 healthy,
// 1 degraded, 2 failed, 3 recovering, 4 draining, 5 removed) and counts
// every transition edge under
// fault.health.transitions{from=...,to=...}. A flight ring, when given,
// additionally records every transition edge in the member's ring buffer.
// With no registry, tracer, or ring it leaves the Health unobserved.
func watchHealth(reg *telemetry.Registry, tr *telemetry.Tracer, fr *flight.Ring, h *fault.Health, idx int) {
	if reg == nil && tr == nil && fr == nil {
		return
	}
	g := reg.Gauge("fault.health.state", "sdimm", strconv.Itoa(idx))
	g.Set(int64(fault.Healthy))
	h.SetObserver(func(from, to fault.State) {
		g.Set(int64(to))
		reg.Counter("fault.health.transitions", "from", from.String(), "to", to.String()).Inc()
		fr.Record(flight.KindHealth, uint64(from), uint64(to))
		if tr != nil {
			tr.Instant(0, "health."+to.String(), "fault",
				map[string]any{"sdimm": idx, "from": from.String()})
		}
	})
}

// flightKind maps a transactor recovery event onto its flight-recorder
// event kind, so each member's ring shows retry/ARQ activity inline with
// that member's phase edges and health transitions.
func flightKind(ev fault.NotifyEvent) flight.Kind {
	switch ev {
	case fault.NotifyRetry:
		return flight.KindRetry
	case fault.NotifyRetransmit:
		return flight.KindRetransmit
	case fault.NotifyResync:
		return flight.KindResync
	default:
		return flight.KindAbandon
	}
}

// Command kinds for the 1-byte envelope prefixed to every sealed body, so
// the secure buffer can dispatch without relying on message length.
const (
	msgKindAccess byte = 0x01
	msgKindAppend byte = 0x02
	appendAck     byte = 0x06
)

// appendAckBody is the shared APPEND acknowledgement body. It is read-only
// (the transactor copies it into the seal buffer), so one instance serves
// every SDIMM.
var appendAckBody = []byte{appendAck}

// Cluster is a functional distributed ORAM: the host side (position map,
// request routing, APPEND broadcast) runs here; each SDIMM's secure buffer
// executes whole accessORAM operations against its own encrypted tree. All
// host<->buffer messages cross an (in-process) untrusted channel sealed
// with the session cryptography of the paper's Section III-B — and, unlike
// the seed implementation, that channel is allowed to fail: every exchange
// runs through a fault.Transactor that retries transient faults with
// byte-identical retransmissions, position-map updates commit only after
// the owning buffer has executed the access, and per-SDIMM health tracking
// degrades buffers instead of bricking addresses.
type Cluster struct {
	buffers   []*isdimm.Buffer
	links     []*fault.Transactor
	health    []*fault.Health
	pos       oram.PositionMap
	rnd       *rng.Source
	blockSize int
	levels    int
	localBits uint
	tm        clusterTelemetry
	blame     *blame.Collector
	flight    *flight.Recorder
	durableState

	// mkMember builds a fresh incarnation of slot i (store, engine, buffer,
	// device identity, handshake, transactor) and installs it in place. Set
	// by buildCluster; used by joins and by checkpoint restore when the
	// checkpointed incarnation differs from the founding one.
	mkMember func(i int, inc uint64) error
	// elig is pickHealthyLeaf's reusable eligible-member scratch.
	elig []int

	// Per-SDIMM reusable message scratch. Commands to (and the serve
	// response for) SDIMM i are only ever built on the goroutine currently
	// driving link i — the coordinator on the sequential path, worker i
	// under a Pipeline — so per-SDIMM buffers are race-free by the same
	// argument as the links themselves.
	cmdBufs   [][]byte // kind byte + marshalled command body
	serveBufs [][]byte // device-side response body
	writeBuf  []byte   // Write's zero-padded payload staging
}

// NewCluster builds a cluster: it mints a device identity per SDIMM,
// registers them with an authority, and performs the SEND_PKEY /
// RECEIVE_SECRET handshake for each. With Durability set the state
// directory must be empty (recovering an existing one is RecoverCluster's
// job — silently reinitializing it would clobber recoverable state) and a
// genesis checkpoint is written before the cluster accepts traffic.
func NewCluster(opts ClusterOptions) (*Cluster, error) {
	opts = opts.withDefaults()
	c, err := buildCluster(opts)
	if err != nil {
		return nil, err
	}
	if opts.Durability != nil {
		if err := c.attachDurability(opts.Durability, independentFingerprint(opts), opts.Key); err != nil {
			return nil, err
		}
		if c.dur.HasState() {
			return nil, fmt.Errorf("sdimm: state directory %s already holds checkpoints; use RecoverCluster", opts.Durability.Dir)
		}
		if err := c.ForceCheckpoint(); err != nil {
			return nil, err
		}
	}
	return c, nil
}

// newCluster builds the cluster core (buffers, links, health) with no
// durability attached. opts must already be defaulted.
func buildCluster(opts ClusterOptions) (*Cluster, error) {
	if opts.SDIMMs < 2 || opts.SDIMMs&(opts.SDIMMs-1) != 0 {
		return nil, errors.New("sdimm: SDIMM count must be a power of two ≥ 2")
	}
	localLevels := opts.Levels - log2int(opts.SDIMMs)
	if localLevels < 2 {
		return nil, fmt.Errorf("sdimm: %d levels too shallow for %d SDIMMs", opts.Levels, opts.SDIMMs)
	}
	geom, err := oram.NewGeometry(localLevels)
	if err != nil {
		return nil, err
	}

	auth := seccomm.NewAuthority()
	c := &Cluster{
		// Sharded so the pipeline's workers can commit positions for distinct
		// addresses concurrently; the sequential path sees an ordinary map.
		pos:       oram.NewShardedPosMap(4 * opts.SDIMMs),
		rnd:       rng.New(opts.Seed),
		blockSize: opts.BlockSize,
		levels:    opts.Levels,
		localBits: uint(localLevels - 1),
		tm:        newClusterTelemetry(opts.Telemetry, opts.Tracer),
		blame:     opts.Blame,
		flight:    opts.Flight,
	}
	c.poisoned = make(map[uint64]bool)
	c.cmdBufs = make([][]byte, opts.SDIMMs)
	c.serveBufs = make([][]byte, opts.SDIMMs)
	// Link-recovery and crypto counters aggregate across all SDIMMs, so the
	// registry totals line up with the sums over Health().
	var linkMetrics *fault.LinkMetrics
	var commMetrics *seccomm.Metrics
	if opts.Telemetry != nil {
		linkMetrics = fault.NewLinkMetrics(opts.Telemetry)
		commMetrics = seccomm.NewMetrics(opts.Telemetry)
		if opts.Faults != nil {
			opts.Faults.EnableTelemetry(opts.Telemetry)
		}
	}
	for i := 0; i < opts.SDIMMs; i++ {
		store, err := oram.NewMemStore(opts.Z, opts.BlockSize, append([]byte(fmt.Sprintf("sd%d|", i)), opts.Key...))
		if err != nil {
			return nil, err
		}
		engine, err := oram.NewEngine(store, nil, oram.Options{
			Geometry:          geom,
			StashCapacity:     200,
			EvictThreshold:    150,
			RingFlushInterval: opts.RingFlushInterval,
			Rand:              rng.New(opts.Seed ^ uint64(0x5d*i+11)),
		})
		if err != nil {
			return nil, err
		}
		buf, err := isdimm.NewBuffer(fmt.Sprintf("sdimm-%d", i), engine, 64, 0.25,
			rng.New(opts.Seed^uint64(0x77*i+5)))
		if err != nil {
			return nil, err
		}
		dev, err := seccomm.NewDevice(buf.ID(), nil)
		if err != nil {
			return nil, err
		}
		auth.Register(dev)
		host, devSide, err := seccomm.Handshake(nil, dev, auth)
		if err != nil {
			return nil, err
		}
		host.SetMetrics(commMetrics)
		devSide.SetMetrics(commMetrics)
		c.buffers = append(c.buffers, buf)
		h := fault.NewHealth(opts.DegradeAfter, 0)
		watchHealth(opts.Telemetry, opts.Tracer, opts.Flight.Ring(i), h, i)
		c.health = append(c.health, h)

		var link fault.Link = fault.Perfect{}
		if opts.Faults != nil {
			link = opts.Faults.Link(i)
		}
		sd := i
		tr := &fault.Transactor{
			Host:    host,
			Dev:     devSide,
			Link:    link,
			Serve:   func(body []byte) ([]byte, error) { return c.serve(sd, body) },
			Retry:   opts.Retry,
			Metrics: linkMetrics,
		}
		if opts.LinkTap != nil {
			tap := opts.LinkTap
			tr.Tap = func(dir fault.Direction, attempt int, frame []byte) { tap(sd, dir, attempt, frame) }
		}
		if fr := opts.Flight.Ring(sd); fr != nil {
			tr.Notify = func(ev fault.NotifyEvent, n int) { fr.Record(flightKind(ev), uint64(n), 0) }
		}
		c.links = append(c.links, tr)
	}
	c.initElastic(opts.SDIMMs)

	// Member factory for post-founding incarnations (joins and restores).
	// Store keys and RNG seeds derive from (slot, incarnation) so a joined
	// member never aliases state with any predecessor in the same slot, and
	// reconstruction is deterministic from the options alone. The founding
	// loop above keeps its original derivations untouched — incarnation 0
	// always reconstructs bit-identically.
	c.mkMember = func(i int, inc uint64) error {
		if i < 0 || i >= len(c.buffers) {
			return fmt.Errorf("sdimm: member slot %d out of range", i)
		}
		stream := int(inc)<<8 | i
		store, err := oram.NewMemStore(opts.Z, opts.BlockSize, append([]byte(fmt.Sprintf("sd%d.%d|", i, inc)), opts.Key...))
		if err != nil {
			return err
		}
		engine, err := oram.NewEngine(store, nil, oram.Options{
			Geometry:          geom,
			StashCapacity:     200,
			EvictThreshold:    150,
			RingFlushInterval: opts.RingFlushInterval,
			Rand:              rng.Stream(opts.Seed, "elastic.engine", stream),
		})
		if err != nil {
			return err
		}
		buf, err := isdimm.NewBuffer(fmt.Sprintf("sdimm-%d.%d", i, inc), engine, 64, 0.25,
			rng.Stream(opts.Seed, "elastic.buffer", stream))
		if err != nil {
			return err
		}
		dev, err := seccomm.NewDevice(buf.ID(), nil)
		if err != nil {
			return err
		}
		auth.Register(dev)
		host, devSide, err := seccomm.Handshake(nil, dev, auth)
		if err != nil {
			return err
		}
		host.SetMetrics(commMetrics)
		devSide.SetMetrics(commMetrics)
		var link fault.Link = fault.Perfect{}
		if opts.Faults != nil {
			link = opts.Faults.Link(i)
		}
		sd := i
		tr := &fault.Transactor{
			Host:    host,
			Dev:     devSide,
			Link:    link,
			Serve:   func(body []byte) ([]byte, error) { return c.serve(sd, body) },
			Retry:   opts.Retry,
			Metrics: linkMetrics,
		}
		if opts.LinkTap != nil {
			tap := opts.LinkTap
			tr.Tap = func(dir fault.Direction, attempt int, frame []byte) { tap(sd, dir, attempt, frame) }
		}
		if fr := opts.Flight.Ring(sd); fr != nil {
			tr.Notify = func(ev fault.NotifyEvent, n int) { fr.Record(flightKind(ev), uint64(n), 0) }
		}
		c.buffers[i] = buf
		c.links[i] = tr
		return nil
	}
	return c, nil
}

func log2int(n int) int {
	b := 0
	for n > 1 {
		n >>= 1
		b++
	}
	return b
}

// SDIMMs returns the number of secure buffers.
func (c *Cluster) SDIMMs() int { return len(c.buffers) }

// BlockSize returns the payload size per block.
func (c *Cluster) BlockSize() int { return c.blockSize }

// Read returns the payload of addr (zeros if never written). A read of an
// address lost to unrecoverable corruption returns ErrUnrecoverable.
func (c *Cluster) Read(addr uint64) ([]byte, error) {
	out, err := c.tracedAccess(addr, oram.OpRead, nil)
	c.tm.observe(oram.OpRead, err)
	if err == nil {
		err = c.maybeCheckpoint(c.ForceCheckpoint)
	}
	return out, err
}

// Write stores up to BlockSize bytes at addr.
func (c *Cluster) Write(addr uint64, data []byte) error {
	if len(data) > c.blockSize {
		return fmt.Errorf("sdimm: payload %d exceeds block size %d", len(data), c.blockSize)
	}
	if cap(c.writeBuf) < c.blockSize {
		c.writeBuf = make([]byte, c.blockSize)
	}
	buf := c.writeBuf[:c.blockSize]
	clear(buf)
	copy(buf, data)
	_, err := c.tracedAccess(addr, oram.OpWrite, buf)
	c.tm.observe(oram.OpWrite, err)
	if err == nil {
		err = c.maybeCheckpoint(c.ForceCheckpoint)
	}
	return err
}

// Close releases the durability manager (no-op without one).
func (c *Cluster) Close() error {
	if c.dur != nil {
		return c.dur.Close()
	}
	return nil
}

// tracedAccess wraps access in one tracer span per top-level operation.
func (c *Cluster) tracedAccess(addr uint64, op oram.Op, data []byte) ([]byte, error) {
	tr := c.tm.tracer
	if tr == nil {
		return c.access(addr, op, data)
	}
	lane := tr.Lane()
	sp := tr.Begin(lane, "cluster.access", "cluster")
	out, err := c.access(addr, op, data)
	sp.EndArgs(map[string]any{"addr": addr, "write": op == oram.OpWrite, "err": err != nil})
	tr.FreeLane(lane)
	return out, err
}

// serve is the device-side command dispatcher: it runs inside the
// fault.Transactor with an opened (authenticated, decrypted) body, executes
// the buffer operation, and returns the response body to seal. The
// Transactor guarantees it runs at most once per exchange regardless of
// link faults.
func (c *Cluster) serve(sd int, body []byte) ([]byte, error) {
	if len(body) == 0 {
		return nil, fmt.Errorf("sdimm %d: empty command body", sd)
	}
	kind, payload := body[0], body[1:]
	switch kind {
	case msgKindAccess:
		// Zero-copy decode: req.Data aliases the opened frame, which stays
		// valid through HandleAccess (the engine copies write payloads in).
		req, err := isdimm.UnmarshalAccessView(payload, c.blockSize)
		if err != nil {
			return nil, err
		}
		if _, _, err := c.buffers[sd].HandleAccess(req); err != nil {
			return nil, err
		}
		// PROBE until ready (functional: immediately), then FETCH_RESULT.
		if !c.buffers[sd].HandleProbe() {
			return nil, fmt.Errorf("sdimm: buffer %d has no response", sd)
		}
		resp, err := c.buffers[sd].HandleFetchResult()
		if err != nil {
			return nil, err
		}
		// The body is sealed (copied) by the transactor before serve's next
		// invocation on this SDIMM, so per-SDIMM scratch is safe to hand out.
		c.serveBufs[sd] = isdimm.AppendResponse(c.serveBufs[sd][:0], resp, c.blockSize)
		return c.serveBufs[sd], nil
	case msgKindAppend:
		blk, dummy, err := isdimm.UnmarshalAppendView(payload, c.blockSize)
		if err != nil {
			return nil, err
		}
		if _, err := c.buffers[sd].HandleAppend(blk, dummy); err != nil {
			return nil, err
		}
		return appendAckBody, nil
	}
	return nil, fmt.Errorf("sdimm %d: unknown command kind %#02x", sd, kind)
}

// accessBody marshals an ACCESS command into SDIMM sd's command scratch.
// The body is consumed (copied into the link's seal buffer) before the next
// command to the same SDIMM is built.
func (c *Cluster) accessBody(sd int, req isdimm.AccessRequest) []byte {
	b := append(c.cmdBufs[sd][:0], msgKindAccess)
	b = isdimm.AppendAccess(b, req, c.blockSize)
	c.cmdBufs[sd] = b
	return b
}

// appendBody marshals an APPEND command into SDIMM sd's command scratch.
func (c *Cluster) appendBody(sd int, blk oram.Block, dummy bool) []byte {
	b := append(c.cmdBufs[sd][:0], msgKindAppend)
	b = isdimm.AppendAppend(b, blk, dummy, c.blockSize)
	c.cmdBufs[sd] = b
	return b
}

// exchange runs one sealed command/response transaction with buffer sd and
// keeps its health record current. Every error leaving here carries the
// buffer's index and ID. The response is the transactor's scratch: valid
// only until the next exchange on the same SDIMM.
func (c *Cluster) exchange(sd int, op string, body []byte) ([]byte, error) {
	resp, err := c.links[sd].Exchange(body)
	if err != nil {
		c.health[sd].Failure(err)
		return nil, c.wrapErr(sd, op, err)
	}
	c.health[sd].Success()
	return resp, nil
}

func (c *Cluster) wrapErr(sd int, op string, err error) error {
	return &fault.SDIMMError{Index: sd, ID: c.buffers[sd].ID(), Op: op, Err: err}
}

// ErrNoHealthySDIMM reports that no cluster member is eligible to receive
// block placements: every SDIMM is failed, draining, or removed.
var ErrNoHealthySDIMM = errors.New("sdimm: no healthy SDIMM available for placement")

// pickHealthyLeaf draws a uniformly random global leaf whose owning SDIMM is
// eligible for placement — not failed, not draining, not removed — so blocks
// are never placed on a dead buffer and a draining member's population only
// shrinks. Eligible members are enumerated once and a single draw spans
// (eligible × local leaves): unlike the old bounded-retry loop this cannot
// spuriously fail while healthy SDIMMs remain, and with every member
// eligible it consumes exactly the same single Uint64n(globalLeaves) draw
// (the eligible count is a power of two), so seeded histories are unchanged.
// A failed/draining/removed SDIMM is public knowledge on the channel, so the
// skew is not an access-pattern leak.
func (c *Cluster) pickHealthyLeaf(globalLeaves uint64) (uint64, error) {
	return c.pickLeafStates(func(i int) fault.State { return c.health[i].State() },
		len(c.health), globalLeaves)
}

// pickLeafStates is pickHealthyLeaf's core with the health source abstracted:
// the sequential path reads the live records, the pipeline a coordinator
// snapshot (see Pipeline.pickLeafSnap). Both consume RNG draws identically
// for identical state views, which is what keeps seeded histories aligned.
func (c *Cluster) pickLeafStates(state func(i int) fault.State, n int, globalLeaves uint64) (uint64, error) {
	c.elig = c.elig[:0]
	for i := 0; i < n; i++ {
		switch state(i) {
		case fault.Failed, fault.Draining, fault.Removed:
		default:
			c.elig = append(c.elig, i)
		}
	}
	if len(c.elig) == 0 {
		return 0, ErrNoHealthySDIMM
	}
	x := c.rnd.Uint64n(uint64(len(c.elig)) << c.localBits)
	mask := uint64(1)<<c.localBits - 1
	return uint64(c.elig[x>>c.localBits])<<c.localBits | (x & mask), nil
}

// access runs one distributed accessORAM: route by old leaf, execute on the
// owning SDIMM (over the encrypted, possibly faulty link), fetch the
// result, and broadcast the APPEND that carries the block to its new home.
//
// Recovery semantics: the position map is committed only AFTER the owning
// buffer has executed the access. A fault before that point (however the
// retries end) leaves host and buffers exactly as they were, so the
// address stays readable — the seed's map-first ordering permanently
// bricked the address on any link error.
func (c *Cluster) access(addr uint64, op oram.Op, data []byte) ([]byte, error) {
	if c.crashedNow() {
		return nil, durable.ErrCrashed
	}
	globalLeaves := uint64(1) << (c.levels - 1)
	oldG, mapped := c.pos.Get(addr)
	if !mapped {
		// The block exists nowhere yet; route the dummy access to a live
		// buffer so a dead one cannot deny fresh writes.
		var err error
		if oldG, err = c.pickHealthyLeaf(globalLeaves); err != nil {
			return nil, err
		}
	}
	sd := int(oldG >> c.localBits)
	if st := c.health[sd].State(); st == fault.Failed || st == fault.Removed {
		return nil, c.wrapErr(sd, "access", fault.ErrUnavailable)
	}
	newG, err := c.pickHealthyLeaf(globalLeaves)
	if err != nil {
		return nil, err
	}

	mask := uint64(1)<<c.localBits - 1
	sdNew := int(newG >> c.localBits)
	keep := sd == sdNew

	req := isdimm.AccessRequest{
		Addr:    addr,
		Op:      op,
		Data:    data,
		OldLeaf: oldG & mask,
		NewLeaf: newG & mask,
		Keep:    keep,
	}

	// ACCESS over the sealed link (reads carry a dummy payload slot).
	respBody, err := c.exchange(sd, "access", c.accessBody(sd, req))
	if err != nil {
		// The buffer never executed the access (or its result is
		// unreachable): the map still holds oldG, nothing desynchronized.
		return nil, err
	}
	// Staged commit point: the buffer has executed the access, so the
	// block now lives under newG (locally when kept, or in flight in the
	// response). Later append failures cannot move it again. The journal
	// record lands here — a crash before this append means the access never
	// happened; after it, recovery replays it.
	c.pos.Set(addr, newG)
	if err := c.commitRecord(addr, op, data); err != nil {
		return nil, err
	}

	resp, err := isdimm.UnmarshalResponse(respBody, c.blockSize)
	if err != nil {
		return nil, c.wrapErr(sd, "access response", err)
	}

	// APPEND broadcast: one sealed block-sized message to every live SDIMM;
	// only the new owner receives the real block (when it migrated).
	blk := resp.Block
	blk.Addr = addr
	blk.Leaf = newG & mask
	for j := range c.buffers {
		real := !keep && j == sdNew && !resp.Dummy
		if !real {
			if st := c.health[j].State(); st == fault.Failed || st == fault.Removed {
				// A dead or removed buffer has no channel; its dummy is
				// undeliverable. A draining member still receives dummies —
				// it is live, and skipping it would change the traffic shape.
				continue
			}
		}
		ack, err := c.exchange(j, "append", c.appendBody(j, blk, !real))
		if err != nil {
			c.tm.appendsLost.Inc()
			if real {
				// The migrating block was in this exchange. Rather than
				// losing the payload, re-home it to a different healthy
				// SDIMM and repoint the position map.
				if rerr := c.rehome(addr, blk, j, globalLeaves); rerr != nil {
					return nil, rerr
				}
			}
			// A lost dummy costs nothing beyond the health record.
			continue
		}
		if len(ack) != 1 || ack[0] != appendAck {
			return nil, c.wrapErr(j, "append", fmt.Errorf("sdimm: malformed append ack %x", ack))
		}
	}

	if op == oram.OpRead {
		// Poison veto at delivery: the access itself ran normally (keeping
		// every RNG draw and placement identical to an uncorrupted run), but
		// a payload lost to unrecoverable corruption must not be served as
		// zeros. Replay is exempt — it re-executes history, and the poisoned
		// result was never delivered anyway. Migration steps are exempt too:
		// a poisoned block must still be carried off a draining member (its
		// payload is never delivered to a caller), and vetoing would abort
		// the drain.
		if !c.replaying && !c.migrating && c.poisoned[addr] {
			c.tm.poisonedReads.Inc()
			return nil, fmt.Errorf("sdimm: read %d: %w", addr, ErrUnrecoverable)
		}
		if resp.Dummy || resp.Block.Data == nil {
			return make([]byte, c.blockSize), nil
		}
		return append([]byte(nil), resp.Block.Data...), nil
	}
	return nil, nil
}

// rehome places an in-flight real block on a healthy SDIMM other than the
// one whose append just failed, then repoints the position map. It runs
// only after an append was abandoned — a channel-visible event — so the
// extra exchange leaks nothing the failure itself did not.
func (c *Cluster) rehome(addr uint64, blk oram.Block, exclude int, globalLeaves uint64) error {
	c.tm.rehomes.Inc()
	if tr := c.tm.tracer; tr != nil {
		tr.Instant(0, "cluster.rehome", "cluster", map[string]any{"addr": addr, "exclude": exclude})
	}
	var lastErr error
	for try := 0; try < 8*len(c.buffers); try++ {
		g, err := c.pickHealthyLeaf(globalLeaves)
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
		ack, err := c.exchange(sd, "rehome append", c.appendBody(sd, nb, false))
		if err != nil {
			lastErr = err
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

// Positions snapshots the position map as addr → global leaf. The
// determinism-equivalence harness compares these across engines.
func (c *Cluster) Positions() map[uint64]uint64 {
	out := make(map[uint64]uint64, c.pos.Len())
	c.pos.Each(func(a, l uint64) { out[a] = l })
	return out
}

// StashLens reports each buffer's stash occupancy (monitoring).
func (c *Cluster) StashLens() []int {
	out := make([]int, len(c.buffers))
	for i, b := range c.buffers {
		out[i] = b.Engine().StashLen()
	}
	return out
}

// BucketWrites sums physical bucket writes across every member's store.
// This is the on-DIMM write-traffic metric the ring-eviction benchmark
// gates on: ring engines defer path writeback to the eviction pointer, so
// the count grows much slower than under Path ORAM at the same workload.
func (c *Cluster) BucketWrites() uint64 {
	var n uint64
	for _, b := range c.buffers {
		if ms, ok := b.Engine().Store().(*oram.MemStore); ok {
			n += ms.Writes()
		}
	}
	return n
}

// SDIMMHealth is one buffer's health as surfaced to operators.
type SDIMMHealth struct {
	Index               int
	ID                  string
	State               fault.State
	ConsecutiveFailures int
	Successes           uint64
	Failures            uint64
	// Link recovery activity (zero for clusters without sealed links).
	Retries     uint64
	Retransmits uint64
	Resyncs     uint64
	Abandoned   uint64
	// LastError is the most recent failure cause ("" if none).
	LastError string
}

// ClusterHealth is a point-in-time view of every buffer's health.
type ClusterHealth struct {
	SDIMMs []SDIMMHealth
}

// Healthy reports whether every buffer is in the Healthy state.
func (h ClusterHealth) Healthy() bool {
	for _, s := range h.SDIMMs {
		if s.State != fault.Healthy {
			return false
		}
	}
	return true
}

// Failed lists the indices of fail-stopped buffers.
func (h ClusterHealth) Failed() []int {
	var out []int
	for _, s := range h.SDIMMs {
		if s.State == fault.Failed {
			out = append(out, s.Index)
		}
	}
	return out
}

// Draining lists the indices of buffers currently being drained.
func (h ClusterHealth) Draining() []int {
	var out []int
	for _, s := range h.SDIMMs {
		if s.State == fault.Draining {
			out = append(out, s.Index)
		}
	}
	return out
}

// Removed lists the indices of detached (removed, not yet replaced) slots.
func (h ClusterHealth) Removed() []int {
	var out []int
	for _, s := range h.SDIMMs {
		if s.State == fault.Removed {
			out = append(out, s.Index)
		}
	}
	return out
}

func healthEntry(i int, id string, h *fault.Health, ts fault.TransactorStats) SDIMMHealth {
	succ, fail := h.Totals()
	e := SDIMMHealth{
		Index:               i,
		ID:                  id,
		State:               h.State(),
		ConsecutiveFailures: h.Consecutive(),
		Successes:           succ,
		Failures:            fail,
		Retries:             ts.Retries,
		Retransmits:         ts.Retransmits,
		Resyncs:             ts.Resyncs,
		Abandoned:           ts.Abandoned,
	}
	if err := h.LastError(); err != nil {
		e.LastError = err.Error()
	}
	return e
}

// HealthStates returns a snapshot of every member's health state. Unlike
// Health it reads only the mutex-guarded state machines (no transactor
// stats), so it is safe to call concurrently with a running pipeline — the
// serving front end's capacity ticker polls it while waves are in flight to
// shrink advertised capacity for Degraded/Recovering/Draining members.
func (c *Cluster) HealthStates() []fault.State {
	out := make([]fault.State, len(c.health))
	for i, h := range c.health {
		out[i] = h.State()
	}
	return out
}

// Health returns the current per-SDIMM health view.
func (c *Cluster) Health() ClusterHealth {
	out := ClusterHealth{SDIMMs: make([]SDIMMHealth, len(c.buffers))}
	for i, b := range c.buffers {
		out.SDIMMs[i] = healthEntry(i, b.ID(), c.health[i], c.links[i].Stats())
	}
	return out
}

// SplitClusterOptions sizes a functional Split-protocol ORAM.
type SplitClusterOptions struct {
	// SDIMMs is the number of shard holders (power of two ≥ 2); each holds
	// BlockSize/SDIMMs bytes of every block.
	SDIMMs int
	// Levels is the (single, shared) tree height.
	Levels int
	// BlockSize is the payload bytes per block (default 64; must divide by
	// SDIMMs).
	BlockSize int
	// Key seeds the per-shard bucket encryption/MAC keys.
	Key []byte
	// Seed drives leaf assignment (0 uses 1).
	Seed uint64
	// Parity adds one extra shard holder storing the XOR of all data
	// shards, so a read can be reconstructed when exactly one member is
	// down (fail-stop tolerance at 1/SDIMMs extra capacity).
	Parity bool
	// Faults optionally supplies an injector whose per-shard fail-stop
	// state the cluster honours (shard index i; the parity shard is index
	// SDIMMs).
	Faults *fault.Injector
	// DegradeAfter marks a shard Degraded after this many consecutive
	// failures (default 3).
	DegradeAfter int
	// Parallelism, when > 1, fans each access's per-bucket shard slices out
	// to persistent per-member worker goroutines and joins on a barrier
	// instead of walking the members in a loop. Every member still executes
	// exactly the same operation sequence in the same order, so a
	// Parallelism: 1 cluster and a Parallelism: N cluster with the same
	// seed evolve bit-identically (see DESIGN.md, Concurrency model). Call
	// Close when done to stop the workers.
	Parallelism int
	// Telemetry, when set, receives cluster.* access counters (including
	// cluster.reconstructions) and per-member health-state gauges.
	Telemetry *telemetry.Registry
	// Tracer, when set, records one span per access plus reconstruction
	// and health-transition instants.
	Tracer *telemetry.Tracer
	// Durability, when set, journals committed accesses and checkpoints
	// shard state for RecoverSplitCluster (see DESIGN.md, Durability &
	// crash recovery).
	Durability *DurabilityOptions
}

// withDefaults normalizes the option fields that have defaults.
func (o SplitClusterOptions) withDefaults() SplitClusterOptions {
	if o.BlockSize == 0 {
		o.BlockSize = 64
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

// SplitCluster is the functional form of the Split protocol (Section
// III-D): every block is bit-sliced across the member buffers, which hold
// shard trees of identical shape. The host owns the position map, routes
// each access to all members, and reassembles the shards. Each shard tree
// is independently encrypted and MACed (the n-MAC overhead the paper
// accepts), and the members' placements never diverge because greedy
// eviction is a pure function of (identical) stash contents. With Parity
// enabled an extra member holds the XOR of the data shards and evolves in
// the same lockstep, so the loss of any single member is survivable.
type SplitCluster struct {
	buffers   []*isdimm.Buffer // data shards
	parity    *isdimm.Buffer   // nil unless Parity
	health    []*fault.Health  // data shards, then parity (if present)
	faults    *fault.Injector
	pos       oram.PositionMap
	rnd       *rng.Source
	blockSize int
	shard     int
	leaves    uint64
	tm        clusterTelemetry
	workers   *workerPool    // nil: member fan-out runs inline
	fanout    sync.WaitGroup // tracks the workers' share of the current fan-out
	writeBuf  []byte         // Write's zero-padded payload staging
	durableState

	// Fan-out error slots, reused across accesses (and eviction rounds) so
	// the steady-state access path allocates only what escapes to the caller.
	errScratch []error
	evScratch  []error

	// mkShardMember builds a fresh incarnation of member i's buffer (data
	// shard, or parity when i == SDIMMs). Set by buildSplitCluster; used by
	// ReplaceMember and by checkpoint restore across incarnations.
	mkShardMember func(i int, inc uint64) (*isdimm.Buffer, error)
}

// NewSplitCluster builds a functional split ORAM. With Durability set the
// state directory must be empty (RecoverSplitCluster owns non-empty ones)
// and a genesis checkpoint is written before the cluster accepts traffic.
func NewSplitCluster(opts SplitClusterOptions) (*SplitCluster, error) {
	opts = opts.withDefaults()
	c, err := buildSplitCluster(opts)
	if err != nil {
		return nil, err
	}
	if opts.Durability != nil {
		if err := c.attachDurability(opts.Durability, splitFingerprint(opts), opts.Key); err != nil {
			return nil, err
		}
		if c.dur.HasState() {
			return nil, fmt.Errorf("sdimm: state directory %s already holds checkpoints; use RecoverSplitCluster", opts.Durability.Dir)
		}
		if err := c.ForceCheckpoint(); err != nil {
			return nil, err
		}
	}
	return c, nil
}

// newSplitCluster builds the cluster core with no durability attached.
// opts must already be defaulted.
func buildSplitCluster(opts SplitClusterOptions) (*SplitCluster, error) {
	if opts.SDIMMs < 2 || opts.SDIMMs&(opts.SDIMMs-1) != 0 {
		return nil, errors.New("sdimm: SDIMM count must be a power of two ≥ 2")
	}
	if opts.BlockSize%opts.SDIMMs != 0 {
		return nil, fmt.Errorf("sdimm: block size %d not divisible by %d shards", opts.BlockSize, opts.SDIMMs)
	}
	geom, err := oram.NewGeometry(opts.Levels)
	if err != nil {
		return nil, err
	}
	c := &SplitCluster{
		pos:       oram.NewSparsePosMap(),
		rnd:       rng.New(opts.Seed ^ 0x59117),
		blockSize: opts.BlockSize,
		shard:     opts.BlockSize / opts.SDIMMs,
		leaves:    geom.Leaves(),
		faults:    opts.Faults,
		tm:        newClusterTelemetry(opts.Telemetry, opts.Tracer),
	}
	c.poisoned = make(map[uint64]bool)
	if opts.Telemetry != nil && opts.Faults != nil {
		opts.Faults.EnableTelemetry(opts.Telemetry)
	}
	mkShard := func(id, keyPrefix string, seed uint64) (*isdimm.Buffer, error) {
		store, err := oram.NewMemStore(4, c.shard, append([]byte(keyPrefix), opts.Key...))
		if err != nil {
			return nil, err
		}
		engine, err := oram.NewEngine(store, nil, oram.Options{
			Geometry:       geom,
			StashCapacity:  200,
			EvictThreshold: 150,
			// All shards must evolve in lockstep: the host directs
			// eviction with shared randomness (below), so the engines'
			// own background eviction stays off.
			DisableAutoDrain: true,
			Rand:             rng.New(opts.Seed ^ 0x3b1d), // same stream: lockstep
		})
		if err != nil {
			return nil, err
		}
		return isdimm.NewBuffer(id, engine, 64, 0, rng.New(seed))
	}
	for i := 0; i < opts.SDIMMs; i++ {
		buf, err := mkShard(fmt.Sprintf("shard-%d", i), fmt.Sprintf("shard%d|", i),
			opts.Seed^uint64(0x99*i+1))
		if err != nil {
			return nil, err
		}
		c.buffers = append(c.buffers, buf)
		h := fault.NewHealth(opts.DegradeAfter, 0)
		watchHealth(opts.Telemetry, opts.Tracer, nil, h, i)
		c.health = append(c.health, h)
	}
	if opts.Parity {
		buf, err := mkShard("parity", "parity|", opts.Seed^uint64(0x99*opts.SDIMMs+1))
		if err != nil {
			return nil, err
		}
		c.parity = buf
		h := fault.NewHealth(opts.DegradeAfter, 0)
		watchHealth(opts.Telemetry, opts.Tracer, nil, h, opts.SDIMMs)
		c.health = append(c.health, h)
	}
	if opts.Parallelism > 1 {
		c.workers = newWorkerPool(len(c.health), opts.Parallelism, 4)
	}
	c.initElastic(len(c.health))

	// Replacement-member factory. Key prefixes and RNG seeds derive from
	// (slot, incarnation), so a replacement never aliases its predecessor's
	// sealed state; the engine RNG seed here is irrelevant — applySplitJoin
	// immediately copies a live sibling's RNG to restore lockstep.
	c.mkShardMember = func(i int, inc uint64) (*isdimm.Buffer, error) {
		if i < 0 || i >= len(c.health) {
			return nil, fmt.Errorf("sdimm: member slot %d out of range", i)
		}
		id, prefix := fmt.Sprintf("shard-%d.%d", i, inc), fmt.Sprintf("shard%d.%d|", i, inc)
		if i == c.parityIndex() && c.parity != nil {
			id, prefix = fmt.Sprintf("parity.%d", inc), fmt.Sprintf("parity.%d|", inc)
		}
		return mkShard(id, prefix, rng.Stream(opts.Seed, "elastic.shard", int(inc)<<8|i).Uint64())
	}
	return c, nil
}

// Close stops the fan-out workers and releases the durability manager.
// Idempotent.
func (c *SplitCluster) Close() {
	if c.workers != nil {
		c.workers.close()
	}
	if c.dur != nil {
		c.dur.Close()
	}
}

// runMember executes fn as member i's share of the current fan-out: on the
// member's worker goroutine when the cluster is parallel, inline otherwise.
// Either way member i's operation sequence is identical — join must be
// called before reading any state fn wrote.
func (c *SplitCluster) runMember(i int, fn func()) {
	if c.workers != nil {
		c.workers.submitWG(i, &c.fanout, fn)
		return
	}
	fn()
}

// join is the fan-out barrier: after it returns the coordinator observes
// every write made by runMember closures.
func (c *SplitCluster) join() { c.fanout.Wait() }

// Read returns the payload of addr, reassembled from all shards.
func (c *SplitCluster) Read(addr uint64) ([]byte, error) {
	out, err := c.access(addr, oram.OpRead, nil)
	c.tm.observe(oram.OpRead, err)
	if err == nil {
		err = c.maybeCheckpoint(c.ForceCheckpoint)
	}
	return out, err
}

// Write stores up to BlockSize bytes at addr, splitting it across shards.
func (c *SplitCluster) Write(addr uint64, data []byte) error {
	if len(data) > c.blockSize {
		return fmt.Errorf("sdimm: payload %d exceeds block size %d", len(data), c.blockSize)
	}
	if cap(c.writeBuf) < c.blockSize {
		c.writeBuf = make([]byte, c.blockSize)
	}
	buf := c.writeBuf[:c.blockSize]
	clear(buf)
	copy(buf, data)
	_, err := c.access(addr, oram.OpWrite, buf)
	c.tm.observe(oram.OpWrite, err)
	if err == nil {
		err = c.maybeCheckpoint(c.ForceCheckpoint)
	}
	return err
}

// FailShard marks member i (data shards 0..SDIMMs-1; SDIMMs = parity)
// fail-stopped. Tests and the chaos harness use it to model a member
// dying mid-run.
func (c *SplitCluster) FailShard(i int) {
	if i >= 0 && i < len(c.health) {
		c.health[i].MarkFailed(fault.ErrFailStop)
	}
}

// memberDown reports whether member i is fail-stopped, folding in the
// injector's fail-stop schedule on first observation.
func (c *SplitCluster) memberDown(i int) bool {
	h := c.health[i]
	if h.State() != fault.Failed && c.faults != nil && c.faults.IsFailStopped(i) {
		h.MarkFailed(fault.ErrFailStop)
	}
	return h.State() == fault.Failed
}

func (c *SplitCluster) parityIndex() int { return len(c.buffers) }

func (c *SplitCluster) parityDown() bool {
	if c.parity == nil {
		return true
	}
	return c.memberDown(c.parityIndex())
}

// xorParity folds a full block into one parity slice: the XOR of its
// SDIMMs data slices.
func xorParity(data []byte, shard int) []byte {
	p := make([]byte, shard)
	for i := 0; i+shard <= len(data); i += shard {
		for j := 0; j < shard; j++ {
			p[j] ^= data[i+j]
		}
	}
	return p
}

func (c *SplitCluster) access(addr uint64, op oram.Op, data []byte) ([]byte, error) {
	if c.crashedNow() {
		return nil, durable.ErrCrashed
	}
	oldLeaf, ok := c.pos.Get(addr)
	if !ok {
		oldLeaf = c.rnd.Uint64n(c.leaves)
	}
	newLeaf := c.rnd.Uint64n(c.leaves)

	// Coordinator phase: fold the injector's fail-stop schedule into the
	// health records and find the (at most one) tolerable down member
	// before any shard work is fanned out.
	down := -1
	for i, b := range c.buffers {
		if c.memberDown(i) {
			if down >= 0 {
				return nil, &fault.SDIMMError{Index: i, ID: b.ID(), Op: "shard access",
					Err: fmt.Errorf("sdimm: shards %d and %d both down: %w", down, i, fault.ErrUnavailable)}
			}
			down = i
		}
	}
	pLive := c.parity != nil && !c.parityDown()

	// Shard fan-out: every live member (data shards and parity — the parity
	// member participates in every access, also reads, so its tree stays in
	// lockstep) executes its slice of the access. Each closure touches only
	// member-owned state plus its own slots in out/errs, so the fan-out is
	// race-free; the lowest-index error wins after the barrier, at any
	// parallelism. Result joining happens on the workers too — each copies
	// its slice into its disjoint region of out — so the coordinator's
	// post-barrier work is just the error scan. out is allocated only for
	// reads (it escapes to the caller); errs reuses cluster scratch.
	var out []byte
	if op == oram.OpRead {
		out = make([]byte, c.blockSize)
	}
	errs := resizeErrs(c.errScratch, len(c.health))
	c.errScratch = errs
	var parityData []byte
	for i, b := range c.buffers {
		if i == down {
			continue
		}
		i, b := i, b
		c.runMember(i, func() {
			var shard []byte
			if op == oram.OpWrite {
				shard = data[i*c.shard : (i+1)*c.shard]
			}
			blk, _, err := b.ShardAccess(isdimm.AccessRequest{
				Addr: addr, Op: op, Data: shard, OldLeaf: oldLeaf, NewLeaf: newLeaf,
			})
			if err != nil {
				c.health[i].Failure(err)
				errs[i] = &fault.SDIMMError{Index: i, ID: b.ID(), Op: "shard access", Err: err}
				return
			}
			c.health[i].Success()
			if op == oram.OpRead && blk.Data != nil {
				copy(out[i*c.shard:], blk.Data)
			}
		})
	}
	if pLive {
		pi := c.parityIndex()
		c.runMember(pi, func() {
			var pdata []byte
			if op == oram.OpWrite {
				pdata = xorParity(data, c.shard)
			}
			pblk, _, err := c.parity.ShardAccess(isdimm.AccessRequest{
				Addr: addr, Op: op, Data: pdata, OldLeaf: oldLeaf, NewLeaf: newLeaf,
			})
			if err != nil {
				c.health[pi].Failure(err)
				errs[pi] = &fault.SDIMMError{Index: pi, ID: c.parity.ID(), Op: "parity access", Err: err}
				return
			}
			c.health[pi].Success()
			if pblk.Data != nil {
				// Engine-owned scratch; consumed by the reconstruction below
				// before the parity engine runs again (evictions come later).
				parityData = pblk.Data
			}
		})
	}
	c.join()
	for _, e := range errs {
		if e != nil {
			return nil, e
		}
	}

	if down >= 0 {
		if !pLive {
			return nil, &fault.SDIMMError{Index: down, ID: c.buffers[down].ID(), Op: "shard access",
				Err: fmt.Errorf("sdimm: shard down and no parity to reconstruct from: %w", fault.ErrUnavailable)}
		}
		if op == oram.OpRead {
			// Reconstruct the missing slice: parity ⊕ every healthy slice.
			c.tm.reconstructions.Inc()
			if tr := c.tm.tracer; tr != nil {
				tr.Instant(0, "cluster.reconstruct", "cluster",
					map[string]any{"addr": addr, "shard": down})
			}
			slice := make([]byte, c.shard)
			copy(slice, parityData)
			for i := range c.buffers {
				if i == down {
					continue
				}
				for j := 0; j < c.shard; j++ {
					slice[j] ^= out[i*c.shard+j]
				}
			}
			copy(out[down*c.shard:], slice)
		}
		// Writes simply skip the dead member: the parity slice carries the
		// missing shard's information for later reconstruction.
	}

	// Staged commit: the shard fan-out (and parity) succeeded, so newLeaf
	// is now the truth everywhere. The journal record lands at the same
	// point — a crash before it means the access never happened.
	c.pos.Set(addr, newLeaf)
	if err := c.commitRecord(addr, op, data); err != nil {
		return nil, err
	}

	// Host-directed background eviction: the leaf is drawn once on the
	// coordinator, then every live member evicts it — fanned out with a
	// barrier per round, since NeedsDrain must observe the finished round.
	ref := c.refEngine()
	for n := 0; n < 8 && ref != nil && ref.NeedsDrain(); n++ {
		leaf := c.rnd.Uint64n(c.leaves)
		evErrs := resizeErrs(c.evScratch, len(c.health))
		c.evScratch = evErrs
		for i, b := range c.buffers {
			if c.memberDown(i) {
				continue
			}
			i, b := i, b
			c.runMember(i, func() {
				if err := b.EvictLocal(leaf); err != nil {
					c.health[i].Failure(err)
					evErrs[i] = &fault.SDIMMError{Index: i, ID: b.ID(), Op: "shard eviction", Err: err}
				}
			})
		}
		if c.parity != nil && !c.parityDown() {
			pi := c.parityIndex()
			c.runMember(pi, func() {
				if err := c.parity.EvictLocal(leaf); err != nil {
					c.health[pi].Failure(err)
					evErrs[pi] = &fault.SDIMMError{Index: pi, ID: c.parity.ID(), Op: "parity eviction", Err: err}
				}
			})
		}
		c.join()
		for _, e := range evErrs {
			if e != nil {
				return nil, e
			}
		}
	}
	if op == oram.OpRead {
		return out, nil
	}
	return nil, nil
}

// refEngine returns any live member's engine (they are in lockstep, so any
// one of them answers NeedsDrain for the group).
func (c *SplitCluster) refEngine() *oram.Engine {
	for i, b := range c.buffers {
		if !c.memberDown(i) {
			return b.Engine()
		}
	}
	if c.parity != nil && !c.parityDown() {
		return c.parity.Engine()
	}
	return nil
}

// Positions snapshots the position map as addr → leaf. The
// determinism-equivalence harness compares these across engines.
func (c *SplitCluster) Positions() map[uint64]uint64 {
	out := make(map[uint64]uint64, c.pos.Len())
	c.pos.Each(func(a, l uint64) { out[a] = l })
	return out
}

// StashLens reports each data shard's stash occupancy; the Split invariant
// is that they are always identical.
func (c *SplitCluster) StashLens() []int {
	out := make([]int, len(c.buffers))
	for i, b := range c.buffers {
		out[i] = b.Engine().StashLen()
	}
	return out
}

// HasParity reports whether the cluster carries a parity shard.
func (c *SplitCluster) HasParity() bool { return c.parity != nil }

// Health returns the current per-member health view (data shards first,
// then the parity shard when present).
func (c *SplitCluster) Health() ClusterHealth {
	out := ClusterHealth{SDIMMs: make([]SDIMMHealth, len(c.health))}
	for i, b := range c.buffers {
		out.SDIMMs[i] = healthEntry(i, b.ID(), c.health[i], fault.TransactorStats{})
	}
	if c.parity != nil {
		pi := c.parityIndex()
		out.SDIMMs[pi] = healthEntry(pi, c.parity.ID(), c.health[pi], fault.TransactorStats{})
	}
	return out
}
