package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"sdimm"
	"sdimm/internal/blame"
	"sdimm/internal/fault"
	"sdimm/internal/serve"
	"sdimm/internal/telemetry"
)

// benchKey is the cluster master key every serve workload uses.
var benchKey = []byte("perfbench-cluster-key")

// clusterOptions is the cluster a serve workload runs on. dir is the
// durable state directory (ignored unless the workload is durable).
func clusterOptions(spec serveSpec, seed uint64, dir string) sdimm.ClusterOptions {
	o := sdimm.ClusterOptions{
		SDIMMs:            spec.sdimms,
		Levels:            spec.levels,
		BlockSize:         spec.blockSize,
		RingFlushInterval: spec.ringA,
		Key:               benchKey,
		Seed:              seed,
	}
	if spec.durable {
		// Journal written without fsync: the sdimm-serve -state default.
		o.Durability = &sdimm.DurabilityOptions{Dir: dir, Interval: spec.ckptInterval}
	}
	return o
}

// linkTap counts the frames the cluster puts on its links while enabled,
// by size, through the public ClusterOptions.LinkTap hook (chained behind
// the server's witness tap).
type linkTap struct {
	on     atomic.Bool
	mu     sync.Mutex
	frames map[int]uint64 // frame length -> count
}

func (t *linkTap) tap(_ int, _ fault.Direction, _ int, frame []byte) {
	if !t.on.Load() {
		return
	}
	t.mu.Lock()
	t.frames[len(frame)]++
	t.mu.Unlock()
}

// totals returns the frame count and byte count seen.
func (t *linkTap) totals() (frames, bytes uint64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for n, c := range t.frames {
		frames += c
		bytes += uint64(n) * c
	}
	return frames, bytes
}

// servePass is everything one measured pass of a serve workload observed.
type servePass struct {
	spec   serveSpec
	dur    time.Duration
	ops    []op
	out    []outcome
	setupS []float64

	slo           serve.SLOSnapshot
	before, after telemetry.Snapshot
	latHist       telemetry.HistogramDump // serve.latency_us over the window
	retries       uint64
	cpuS          float64   // process CPU seconds over the window
	stealFrac     float64   // machine CPU share stolen over the window
	sliceSteal    []float64 // the same, per window slice

	// Traced passes only.
	blameWin     blame.Report // collector totals over the window
	waveOps      []int        // ops of each launching wave in the window
	tap          *linkTap
	stateDir     string // durable state left for the recovery replay
	opts         sdimm.ClusterOptions
	committedSeq uint64 // accesses the durable cluster committed
}

// startServer builds a server and preloads every address of the space.
func startServer(spec serveSpec, opts sdimm.ClusterOptions) (*serve.Server, string, error) {
	srv, err := serve.New(serve.Config{
		Cluster:         opts,
		Pipeline:        sdimm.PipelineOptions{Window: spec.window},
		DefaultDeadline: spec.deadline,
	})
	if err != nil {
		return nil, "", fmt.Errorf("build server: %w", err)
	}
	addr, err := srv.Start("127.0.0.1:0")
	if err == nil {
		err = preload(addr, spec)
	}
	if err != nil {
		srv.Shutdown(context.Background())
		return nil, "", err
	}
	return srv, addr, nil
}

// preload writes the seq-0 payload to every address, closed loop through
// serve.Client, so every read in the window has a known initial value.
func preload(addr string, spec serveSpec) error {
	c, err := serve.Dial(addr, "perfbench-preload")
	if err != nil {
		return fmt.Errorf("preload dial: %w", err)
	}
	defer c.Close()
	const workers = 8
	var (
		next atomic.Uint64
		wg   sync.WaitGroup
		errs = make([]error, workers)
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for a := next.Add(1) - 1; a < spec.space; a = next.Add(1) - 1 {
				req := serve.Request{Addr: a, Write: true, Data: encodePayload(spec.blockSize, a, 0)}
				for attempt := 0; ; attempt++ {
					resp, err := c.Do(req)
					if err != nil {
						errs[w] = fmt.Errorf("preload addr %d: %w", a, err)
						return
					}
					if resp.Status == serve.StatusOK {
						break
					}
					if attempt == 100 {
						errs[w] = fmt.Errorf("preload addr %d: %s after %d attempts", a, serve.StatusString(resp.Status), attempt+1)
						return
					}
					time.Sleep(time.Millisecond)
				}
			}
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

// runServePass sets the workload up setupRepeats times (keeping the last
// server), then offers the op stream open loop for dur and records what
// happened. With rec set the pass is traced: a blame collector and a link
// tap are attached through the public cluster options, and the
// benchmark's spans are recorded.
func runServePass(spec serveSpec, seed uint64, dur time.Duration, root string, rec *recorder) (*servePass, error) {
	p := &servePass{spec: spec, dur: dur, ops: schedule(spec, seed, dur)}
	var (
		srv  *serve.Server
		addr string
		bc   *blame.Collector
	)
	for k := 0; k < setupRepeats; k++ {
		sp := rec.begin("setup", -1, -1)
		t0 := time.Now()
		dir := filepath.Join(root, fmt.Sprintf("state-%d", k))
		opts := clusterOptions(spec, seed, dir)
		if rec != nil {
			bc = blame.NewCollector(spec.sdimms, 1<<16)
			bc.SetClock(func() uint64 { return uint64(rec.now()) })
			opts.Blame = bc
			p.tap = &linkTap{frames: map[int]uint64{}}
			opts.LinkTap = p.tap.tap
		}
		s, a, err := startServer(spec, opts)
		if err != nil {
			return nil, err
		}
		p.setupS = append(p.setupS, time.Since(t0).Seconds())
		rec.end(sp)
		if k < setupRepeats-1 {
			if err := s.Shutdown(context.Background()); err != nil {
				return nil, fmt.Errorf("setup teardown: %w", err)
			}
			if err := os.RemoveAll(dir); err != nil {
				return nil, err
			}
			continue
		}
		srv, addr, p.stateDir, p.opts = s, a, dir, opts
	}

	reg := srv.Registry()
	lat := reg.Histogram("serve.latency_us", 250, 400)
	latBefore := lat.Dump()
	p.before = reg.Snapshot()
	srv.Admission().PeakDepth() // reset the high-water mark to the window
	var blameBefore blame.Report
	if bc != nil {
		blameBefore = bc.Report()
		p.tap.on.Store(true)
	}

	sp := rec.begin("window", -1, -1)
	winStart := rec.now()
	cpu0 := readCPU()
	stop, stolen := make(chan struct{}), make(chan []float64, 1)
	n := slicesFor(dur)
	go func() { stolen <- sliceSteal(n, dur/time.Duration(n), stop) }()
	out, err := openLoop(addr, p.ops, spec.blockSize, spec.deadline)
	close(stop)
	p.sliceSteal = <-stolen
	p.cpuS, p.stealFrac = cpu0.since()
	rec.end(sp)
	if err != nil {
		srv.Shutdown(context.Background())
		return nil, err
	}
	p.out = out
	p.slo = srv.SLO()
	p.after = reg.Snapshot()
	p.latHist = diffHist(lat.Dump(), latBefore)
	if bc != nil {
		p.tap.on.Store(false)
		p.blameWin = diffBlame(bc.Report(), blameBefore)
		for _, w := range bc.Recent() {
			if w.Bounds[0] >= uint64(winStart) && w.Ops > 0 {
				p.waveOps = append(p.waveOps, w.Ops)
			}
		}
	}

	sp = rec.begin("shutdown", -1, -1)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	err = srv.Shutdown(ctx)
	cancel()
	rec.end(sp)
	if err != nil {
		return nil, fmt.Errorf("shutdown: %w", err)
	}
	p.committedSeq = srv.Cluster().WorkloadSeq()
	for _, h := range srv.Cluster().Health().SDIMMs {
		p.retries += h.Retries
	}
	if rec != nil {
		rec.addRequests(winStart, p.ops, p.out)
	}
	return p, nil
}

// addRequests records each request of the window as a span from its
// intended send time to its response, with a child span from the actual
// send; spans of one request share its ID. base is the window's start on
// the recorder's clock.
func (r *recorder) addRequests(base int64, ops []op, out []outcome) {
	for i, o := range out {
		if !o.answered() {
			continue
		}
		id := r.add(span{Name: "request", Req: int64(i), Parent: -1, Start: base + int64(ops[i].at), End: base + o.recv})
		r.add(span{Name: "request.wire+server", Req: int64(i), Parent: id, Start: base + o.sent, End: base + o.recv})
	}
}

// diffHist returns the samples a histogram gained between two dumps.
func diffHist(after, before telemetry.HistogramDump) telemetry.HistogramDump {
	d := telemetry.HistogramDump{Width: after.Width, Buckets: make([]uint64, len(after.Buckets)),
		Over: after.Over - before.Over, Sum: after.Sum - before.Sum, N: after.N - before.N, Max: after.Max}
	for i := range after.Buckets {
		d.Buckets[i] = after.Buckets[i] - before.Buckets[i]
	}
	return d
}

// histQuantile is the upper bucket edge holding the q-quantile of a dump
// (the same convention as telemetry.Histogram.Quantile), and false when
// fewer than minBeyond samples lie beyond it.
func histQuantile(d telemetry.HistogramDump, q float64) (float64, bool) {
	if d.N == 0 {
		return 0, false
	}
	target := uint64(q*float64(d.N) + 0.999999)
	if d.N-target < minBeyond {
		return 0, false
	}
	var cum uint64
	for i, c := range d.Buckets {
		cum += c
		if cum >= target {
			return float64(uint64(i+1) * d.Width), true
		}
	}
	return float64(d.Max), true
}

// diffBlame subtracts two cumulative collector reports, leaving the
// window's totals (phases in phase order, as Report lists them).
func diffBlame(after, before blame.Report) blame.Report {
	d := blame.Report{
		Waves:        after.Waves - before.Waves,
		Ops:          after.Ops - before.Ops,
		WallNS:       after.WallNS - before.WallNS,
		AccessBusyNS: after.AccessBusyNS - before.AccessBusyNS,
		AppendBusyNS: after.AppendBusyNS - before.AppendBusyNS,
	}
	for i, ph := range after.Phases {
		ph.TotalNS -= before.Phases[i].TotalNS
		ph.AllIdleNS -= before.Phases[i].AllIdleNS
		if d.WallNS > 0 {
			ph.Share = float64(ph.TotalNS) / float64(d.WallNS)
		}
		d.SerializedNS += ph.AllIdleNS
		d.Phases = append(d.Phases, ph)
	}
	if d.WallNS > 0 {
		d.SerializedShare = float64(d.SerializedNS) / float64(d.WallNS)
	}
	return d
}

// counterSum totals every counter whose folded name starts with prefix
// (labels fold into the name, so "serve.shed{reason=overload" matches every
// tenant's overload sheds).
func counterSum(s telemetry.Snapshot, prefix string) uint64 {
	var n uint64
	for name, v := range s.Counters {
		if strings.HasPrefix(name, prefix) {
			n += v
		}
	}
	return n
}

// counterDelta is counterSum over the window.
func (p *servePass) counterDelta(prefix string) uint64 {
	return counterSum(p.after, prefix) - counterSum(p.before, prefix)
}

// serveSummary is a pass's end-to-end view.
type serveSummary struct {
	offered, ok, errored, lost, refused int
	latMS                               []float64 // OK latencies, sorted
	lagMS                               []float64 // generator lateness, sorted
	lastRecvS                           float64
}

func (p *servePass) summary() serveSummary {
	var s serveSummary
	s.offered = len(p.ops)
	for i, o := range p.out {
		if o.sent >= 0 {
			s.lagMS = append(s.lagMS, float64(o.sent-int64(p.ops[i].at))/1e6)
		}
		switch {
		case !o.answered():
			s.lost++
		case o.status == serve.StatusOK:
			s.ok++
			s.latMS = append(s.latMS, float64(o.recv-int64(p.ops[i].at))/1e6)
			s.lastRecvS = max(s.lastRecvS, float64(o.recv)/1e9)
		case refused(o.status):
			s.refused++
		default:
			s.errored++
		}
	}
	sort.Float64s(s.latMS)
	sort.Float64s(s.lagMS)
	return s
}

// check runs the serve correctness checks. It returns one error per failed
// check and the number of failed operations: reads that broke
// consistency, requests answered with an error or never answered, and one
// for each server-wide check that failed.
func (p *servePass) check() (errs []error, failed int) {
	reads := checkReads(p.ops, p.out)
	failed = len(reads)
	if len(reads) > 5 {
		reads = append(reads[:5], fmt.Errorf("... and %d more read violations", len(reads)-5))
	}
	errs = reads
	if !p.slo.Witness.OK || p.slo.Witness.Frames == 0 {
		errs = append(errs, fmt.Errorf("witness: %+v", p.slo.Witness))
		failed++
	}
	if p.slo.AcceptedDeadlineMissed != 0 {
		errs = append(errs, fmt.Errorf("%d accepted requests missed their deadline", p.slo.AcceptedDeadlineMissed))
		failed++
	}
	if n := p.retries; n != 0 {
		errs = append(errs, fmt.Errorf("fault.retries = %d on clean links", n))
		failed++
	}
	s := p.summary()
	if n := s.lost + s.errored; n > 0 {
		errs = append(errs, fmt.Errorf("%d requests answered with an error or never answered", n))
		failed += n
	}
	return errs, failed
}
