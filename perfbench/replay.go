package main

import (
	"fmt"
	"math/bits"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"sdimm"
	"sdimm/internal/durable"
	"sdimm/internal/oram"
	"sdimm/internal/rng"
	"sdimm/internal/seccomm"
	"sdimm/internal/serve"
	"sdimm/internal/telemetry"
)

// The traced run measures each layer from outside: it replays the op
// stream the server executed into that layer's public functions, on a
// fresh instance with the workload's shape, and times every call.

const (
	// replayWindow bounds the schedule the pipeline replay re-offers.
	replayWindow = 5 * time.Second
	// replayOps bounds the sequential replays (cluster, engine, journal).
	replayOps = 3000
	// sealPairs is how many seal/open pairs the link replay times.
	sealPairs = 20000
	// checkpointRepeats is how many forced checkpoints are timed.
	checkpointRepeats = 5
)

// layerReport is what the replays measured.
type layerReport struct {
	pipelineUS            []float64 // Pipeline.Serve latency per op, sorted
	clusterUS             float64   // mean Cluster.Read/Write time
	bucketWritesPerAccess float64
	exchangesPerAccess    float64
	oramUS                float64 // mean Engine.Access time
	sealOpenNS            float64 // mean seal+open time at the tapped frame sizes
	appendUS              float64 // mean durable.Manager.Append time per wave group
	journalBytesPerRecord float64
	checkpointMS          float64 // median forced checkpoint time
	checkpointBytes       float64 // newest checkpoint file size
	recoverMS             float64
	recoveredSeq          uint64
	readErrs              []error
}

// executed returns the ops the server executed (answered OK), in schedule
// order, with each op's index in the full stream (its write seq is idx+1).
func (p *servePass) executed() (ops []op, idx []int) {
	for i, o := range p.out {
		if o.answered() && o.status == serve.StatusOK {
			ops = append(ops, p.ops[i])
			idx = append(idx, i)
		}
	}
	return ops, idx
}

// replayLayers runs every replay that applies to the workload.
func replayLayers(p *servePass, seed uint64, root string, rec *recorder) (*layerReport, error) {
	r := &layerReport{}
	ops, idx := p.executed()
	type step struct {
		name string
		run  func() error
	}
	steps := []step{
		{"replay.pipeline", func() error { return r.replayPipeline(p.spec, seed, ops, idx, root, rec) }},
		{"replay.cluster", func() error { return r.replayCluster(p.spec, seed, ops, idx, root, rec) }},
		{"replay.oram", func() error { return r.replayORAM(p.spec, seed, ops, idx, rec) }},
		{"replay.seccomm", func() error { return r.replaySeccomm(p.tap, rec) }},
	}
	if p.spec.durable {
		steps = append(steps,
			step{"replay.durable", func() error { return r.replayJournal(p, ops, idx, root, rec) }},
			step{"replay.recover", func() error { return r.replayRecover(p, rec) }})
	}
	for _, s := range steps {
		sp := rec.begin(s.name, -1, -1)
		err := s.run()
		rec.end(sp)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", s.name, err)
		}
	}
	return r, nil
}

// newReplayCluster builds the workload's cluster outside the server and
// preloads it the way the server was preloaded.
func newReplayCluster(spec serveSpec, seed uint64, dir string, reg *telemetry.Registry) (*sdimm.Cluster, error) {
	opts := clusterOptions(spec, seed, dir)
	opts.Telemetry = reg
	c, err := sdimm.NewCluster(opts)
	if err != nil {
		return nil, err
	}
	for a := uint64(0); a < spec.space; a++ {
		if err := c.Write(a, encodePayload(spec.blockSize, a, 0)); err != nil {
			c.Close()
			return nil, fmt.Errorf("preload addr %d: %w", a, err)
		}
	}
	return c, nil
}

// replayPipeline re-offers the executed ops of the first replayWindow to
// Pipeline.Serve through sdimm.NewAsyncOp, each at its original intended
// time (paced with preciseSleep on a locked thread, as the live generator
// is), and times each op from submission to result.
func (r *layerReport) replayPipeline(spec serveSpec, seed uint64, ops []op, idx []int, root string, rec *recorder) error {
	c, err := newReplayCluster(spec, seed, filepath.Join(root, "replay-pipeline"), nil)
	if err != nil {
		return err
	}
	defer c.Close()
	n := sort.Search(len(ops), func(i int) bool { return ops[i].at >= replayWindow })
	if n == 0 {
		return fmt.Errorf("no executed ops in the first %v", replayWindow)
	}
	pipe := c.Pipeline(sdimm.PipelineOptions{Window: spec.window})
	in := make(chan *sdimm.AsyncOp)
	served := make(chan struct{})
	go func() {
		pipe.Serve(in)
		close(served)
	}()
	lat := make([]float64, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	unlock := lockSender()
	start := time.Now()
	base := ops[0].at
	for i, o := range ops[:n] {
		if wait := o.at - base - time.Since(start); wait > 0 {
			preciseSleep(wait)
		}
		bo := sdimm.BatchOp{Addr: o.addr, Write: o.write}
		if o.write {
			bo.Data = encodePayload(spec.blockSize, o.addr, uint64(idx[i])+1)
		}
		a := sdimm.NewAsyncOp(bo)
		sp := rec.begin("pipeline.Serve", int64(idx[i]), -1)
		t0 := time.Now()
		in <- a
		wg.Add(1)
		go func() {
			defer wg.Done()
			res := <-a.Done
			lat[i] = float64(time.Since(t0)) / 1e3
			rec.end(sp)
			errs[i] = res.Err
		}()
	}
	unlock()
	close(in)
	<-served
	wg.Wait()
	pipe.Close()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	sort.Float64s(lat)
	r.pipelineUS = lat
	return nil
}

// replayCluster runs the executed ops sequentially through Cluster.Read and
// Cluster.Write, checking every read against the last write, then times
// forced checkpoints when the workload is durable.
func (r *layerReport) replayCluster(spec serveSpec, seed uint64, ops []op, idx []int, root string, rec *recorder) error {
	reg := telemetry.NewRegistry()
	c, err := newReplayCluster(spec, seed, filepath.Join(root, "replay-cluster"), reg)
	if err != nil {
		return err
	}
	defer c.Close()
	n := min(len(ops), replayOps)
	writes0, exch0 := c.BucketWrites(), reg.Counter("fault.exchanges").Value()
	last := map[uint64]uint64{}
	var total time.Duration
	for i, o := range ops[:n] {
		name := "cluster.Read"
		if o.write {
			name = "cluster.Write"
		}
		sp := rec.begin(name, int64(idx[i]), -1)
		t0 := time.Now()
		var got []byte
		if o.write {
			err = c.Write(o.addr, encodePayload(spec.blockSize, o.addr, uint64(idx[i])+1))
			last[o.addr] = uint64(idx[i]) + 1
		} else {
			got, err = c.Read(o.addr)
		}
		total += time.Since(t0)
		rec.end(sp)
		if err != nil {
			return fmt.Errorf("op %d: %w", idx[i], err)
		}
		if !o.write {
			if a, s, ok := decodePayload(got); !ok || a != o.addr || s != last[o.addr] {
				r.readErrs = append(r.readErrs, fmt.Errorf("sequential replay: read of addr %d returned (addr %d, seq %d, valid %t), want seq %d",
					o.addr, a, s, ok, last[o.addr]))
			}
		}
	}
	r.clusterUS = float64(total) / float64(n) / 1e3
	r.bucketWritesPerAccess = float64(c.BucketWrites()-writes0) / float64(n)
	r.exchangesPerAccess = float64(reg.Counter("fault.exchanges").Value()-exch0) / float64(n)
	if !spec.durable {
		return nil
	}
	var ck []float64
	for k := 0; k < checkpointRepeats; k++ {
		sp := rec.begin("cluster.ForceCheckpoint", -1, -1)
		d := time.Now()
		err := c.ForceCheckpoint()
		ck = append(ck, float64(time.Since(d))/1e6)
		rec.end(sp)
		if err != nil {
			return err
		}
	}
	r.checkpointMS = median(ck)
	return nil
}

// replayORAM runs the executed ops through one oram.Engine with one
// member's geometry (the global tree split across the SDIMMs) and the
// workload's eviction mode.
func (r *layerReport) replayORAM(spec serveSpec, seed uint64, ops []op, idx []int, rec *recorder) error {
	geom, err := oram.NewGeometry(spec.levels - (bits.Len(uint(spec.sdimms)) - 1))
	if err != nil {
		return err
	}
	store, err := oram.NewMemStore(4, spec.blockSize, benchKey)
	if err != nil {
		return err
	}
	e, err := oram.NewEngine(store, oram.NewDensePosMap(spec.space), oram.Options{
		Geometry: geom, StashCapacity: 200, EvictThreshold: 150,
		RingFlushInterval: spec.ringA, Rand: rng.Stream(seed, "perfbench.oram", 0),
	})
	if err != nil {
		return err
	}
	for a := uint64(0); a < spec.space; a++ {
		if _, _, err := e.Access(a, oram.OpWrite, encodePayload(spec.blockSize, a, 0)); err != nil {
			return fmt.Errorf("preload addr %d: %w", a, err)
		}
	}
	n := min(len(ops), replayOps)
	var total time.Duration
	for i, o := range ops[:n] {
		kind, data := oram.OpRead, []byte(nil)
		if o.write {
			kind, data = oram.OpWrite, encodePayload(spec.blockSize, o.addr, uint64(idx[i])+1)
		}
		sp := rec.begin("oram.Access", int64(idx[i]), -1)
		t0 := time.Now()
		_, _, err := e.Access(o.addr, kind, data)
		total += time.Since(t0)
		rec.end(sp)
		if err != nil {
			return fmt.Errorf("op %d: %w", idx[i], err)
		}
	}
	r.oramUS = float64(total) / float64(n) / 1e3
	return nil
}

// replaySeccomm seals and opens frames at the sizes the link tap saw, in
// proportion to how often each size crossed the links.
func (r *layerReport) replaySeccomm(tap *linkTap, rec *recorder) error {
	auth := seccomm.NewAuthority()
	dev, err := seccomm.NewDevice("perfbench-link", nil)
	if err != nil {
		return err
	}
	auth.Register(dev)
	host, devSide, err := seccomm.Handshake(nil, dev, auth)
	if err != nil {
		return err
	}
	frames, _ := tap.totals()
	tap.mu.Lock()
	sizes := make(map[int]uint64, len(tap.frames))
	for n, c := range tap.frames {
		sizes[n] = c
	}
	tap.mu.Unlock()
	if frames == 0 {
		return fmt.Errorf("link tap saw no frames")
	}
	var (
		total time.Duration
		pairs int
		buf   []byte
		plain []byte
	)
	for size, c := range sizes {
		k := max(int(float64(sealPairs)*float64(c)/float64(frames)+0.5), 1)
		msg := make([]byte, max(size-seccomm.MACSize, 0))
		sp := rec.begin("seccomm.SealAppend+OpenAppend", int64(size), -1)
		t0 := time.Now()
		for j := 0; j < k; j++ {
			buf = host.SealAppend(buf[:0], msg)
			if plain, err = devSide.OpenAppend(plain[:0], buf); err != nil {
				return err
			}
		}
		total += time.Since(t0)
		rec.end(sp)
		pairs += k
	}
	r.sealOpenNS = float64(total) / float64(pairs)
	return nil
}

// replayJournal appends the executed ops' records to a fresh journal with
// durable.Manager.Append, grouped the way the live pipeline grouped them
// into waves.
func (r *layerReport) replayJournal(p *servePass, ops []op, idx []int, root string, rec *recorder) error {
	dir := filepath.Join(root, "replay-journal")
	fp := durable.Fingerprint{Kind: "perfbench-replay", Members: p.spec.sdimms, Levels: p.spec.levels, BlockSize: p.spec.blockSize, Z: 4}
	m, err := durable.Open(dir, benchKey, fp, p.spec.blockSize, false)
	if err != nil {
		return err
	}
	defer m.Close()
	if err := m.WriteCheckpoint(&durable.Checkpoint{}); err != nil {
		return err
	}
	groups := p.waveOps
	if len(groups) == 0 {
		groups = []int{1}
	}
	n := min(len(ops), replayOps)
	var (
		total time.Duration
		calls int
		seq   uint64 = 1
	)
	for i, g := 0, 0; i < n; g++ {
		size := min(groups[g%len(groups)], n-i)
		recs := make([]durable.Record, size)
		for k := range recs {
			o := ops[i+k]
			recs[k] = durable.Record{Seq: seq, Addr: o.addr, Kind: durable.KindRead}
			if o.write {
				recs[k].Kind = durable.KindWrite
				recs[k].Data = encodePayload(p.spec.blockSize, o.addr, uint64(idx[i+k])+1)
			}
			seq++
		}
		sp := rec.begin("durable.Manager.Append", int64(idx[i]), -1)
		t0 := time.Now()
		err := m.Append(recs)
		total += time.Since(t0)
		rec.end(sp)
		if err != nil {
			return err
		}
		calls++
		i += size
	}
	r.appendUS = float64(total) / float64(calls) / 1e3
	ents, err := filepath.Glob(filepath.Join(dir, "journal-*.wal"))
	if err != nil || len(ents) != 1 {
		return fmt.Errorf("replay journal files %v: %v", ents, err)
	}
	st, err := os.Stat(ents[0])
	if err != nil {
		return err
	}
	r.journalBytesPerRecord = float64(st.Size()) / float64(n)
	return nil
}

// replayRecover rebuilds the live run's cluster from its state directory
// with sdimm.RecoverCluster.
func (r *layerReport) replayRecover(p *servePass, rec *recorder) error {
	ckpts, err := filepath.Glob(filepath.Join(p.stateDir, "checkpoint-*.ckpt"))
	if err != nil || len(ckpts) == 0 {
		return fmt.Errorf("no checkpoints in %s", p.stateDir)
	}
	sort.Strings(ckpts)
	st, err := os.Stat(ckpts[len(ckpts)-1])
	if err != nil {
		return err
	}
	r.checkpointBytes = float64(st.Size())
	opts := p.opts
	opts.Blame, opts.LinkTap, opts.Telemetry, opts.Flight = nil, nil, nil, nil
	sp := rec.begin("sdimm.RecoverCluster", -1, -1)
	t0 := time.Now()
	c, _, err := sdimm.RecoverCluster(opts)
	r.recoverMS = float64(time.Since(t0)) / 1e6
	rec.end(sp)
	if err != nil {
		return err
	}
	r.recoveredSeq = c.WorkloadSeq()
	return c.Close()
}
