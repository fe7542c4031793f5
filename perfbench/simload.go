package main

import (
	"fmt"
	"strings"
	"time"

	"sdimm/internal/config"
	"sdimm/internal/sim"
	"sdimm/internal/telemetry"
	"sdimm/internal/trace"
)

// simStats are the simulated statistics a job must reproduce exactly in
// every repeat; they are printed so drift across commits is visible.
type simStats struct {
	Job            string `json:"job"`
	MeasuredCycles uint64 `json:"measured_cycles"`
	LLCMisses      uint64 `json:"llc_misses"`
	HostBytes      uint64 `json:"host_bytes"`
	LocalBytes     uint64 `json:"on_dimm_bytes"`
	AccessORAMs    uint64 `json:"access_orams"`
}

// simPass is one measured pass of sim-paper: the whole job set, repeated
// until the run's time is spent (at least twice).
type simPass struct {
	setupS    []float64
	sets      int
	stats     []simStats           // first set, job order
	protoS    map[string][]float64 // per protocol: host seconds per set
	setRate   []float64            // measured misses simulated per process CPU second, per set
	latency   telemetry.HistogramDump
	mismatch  []error
	cpuS      float64 // process CPU seconds over the measured sets
	stealFrac float64 // machine CPU share stolen meanwhile
	// Traced passes only: DRAM commands issued over the first set.
	dramCmds uint64
}

type simJob struct {
	cfg  config.Config
	app  string
	recs []trace.Record
}

func (j simJob) name() string { return j.cfg.Protocol.String() + "/" + j.app }

// simSetup validates the configurations, generates each app's trace and
// runs one short warm-up job, so lazy set-up is done before timing.
func simSetup(spec simSpec, seed uint64) ([]simJob, error) {
	traces := map[string][]trace.Record{}
	for _, app := range spec.apps {
		prof, err := trace.ProfileByName(app)
		if err != nil {
			return nil, err
		}
		if traces[app], err = prof.Generate(spec.warmup+spec.measure, seed); err != nil {
			return nil, fmt.Errorf("generate %s: %w", app, err)
		}
	}
	var jobs []simJob
	for _, p := range spec.protocols {
		for _, app := range spec.apps {
			cfg := config.Default(p, spec.channels)
			cfg.Seed = seed
			cfg.WarmupAccesses, cfg.MeasureAccesses = spec.warmup, spec.measure
			if err := cfg.Validate(); err != nil {
				return nil, fmt.Errorf("%v: %w", p, err)
			}
			jobs = append(jobs, simJob{cfg: cfg, app: app, recs: traces[app]})
		}
	}
	warm := jobs[0]
	warm.cfg.WarmupAccesses, warm.cfg.MeasureAccesses = spec.warmup/4, spec.measure/4
	if _, err := sim.RunTrace(warm.cfg, warm.app, warm.recs[:spec.warmup/4+spec.measure/4]); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	return jobs, nil
}

// runSimPass runs the job set sequentially in one goroutine, repeating it
// until dur has passed. With rec set each job gets a telemetry registry
// (sim.RunInstrumented's observer) and a span.
func runSimPass(spec simSpec, seed uint64, dur time.Duration, rec *recorder) (*simPass, error) {
	p := &simPass{protoS: map[string][]float64{}}
	var jobs []simJob
	for k := 0; k < setupRepeats; k++ {
		sp := rec.begin("setup", -1, -1)
		t0 := time.Now()
		var err error
		if jobs, err = simSetup(spec, seed); err != nil {
			return nil, err
		}
		p.setupS = append(p.setupS, time.Since(t0).Seconds())
		rec.end(sp)
	}

	start := time.Now()
	cpu0 := readCPU()
	defer func() { p.cpuS, p.stealFrac = cpu0.since() }()
	// Start another set only while it is expected to end within dur.
	var setTook time.Duration
	for set := 0; set < 2 || time.Since(start)+setTook <= dur; set++ {
		setStart, setCPU := time.Now(), readCPU()
		var setMisses uint64
		perProto := map[string]float64{}
		for ji, j := range jobs {
			var tel *sim.Telemetry
			if rec != nil {
				tel = &sim.Telemetry{Registry: telemetry.NewRegistry()}
			}
			sp := rec.begin("sim.job", int64(ji), -1)
			t0 := time.Now()
			res, err := sim.RunTraceInstrumented(j.cfg, j.app, j.recs, nil, tel)
			took := time.Since(t0).Seconds()
			rec.end(sp)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", j.name(), err)
			}
			setMisses += res.LLCMisses
			perProto[j.cfg.Protocol.String()] += took
			st := simStats{Job: j.name(), MeasuredCycles: res.MeasuredCycles, LLCMisses: res.LLCMisses,
				HostBytes: res.HostBytes, LocalBytes: res.LocalBytes, AccessORAMs: res.AccessORAMs}
			if set == 0 {
				p.stats = append(p.stats, st)
				if res.Backend.MissLatency != nil {
					p.latency = mergeDump(p.latency, res.Backend.MissLatency.Dump())
				}
				if tel != nil {
					p.dramCmds += dramCommands(tel.Registry.Snapshot())
				}
			} else if st != p.stats[ji] {
				p.mismatch = append(p.mismatch, fmt.Errorf("%s repeat %d: %+v, first run %+v", j.name(), set, st, p.stats[ji]))
			}
		}
		for name, s := range perProto {
			p.protoS[name] = append(p.protoS[name], s)
		}
		setTook = time.Since(setStart)
		cpuS, _ := setCPU.since()
		p.setRate = append(p.setRate, float64(setMisses)/cpuS)
		p.sets++
	}
	return p, nil
}

// dramCommands totals the column, activate, precharge and refresh
// commands the channels issued (channel-level counters only; the per-rank
// copies would double count).
func dramCommands(s telemetry.Snapshot) uint64 {
	var n uint64
	for name, v := range s.Counters {
		if strings.Contains(name, "rank=") {
			continue
		}
		for _, kind := range []string{"dram.reads{", "dram.writes{", "dram.activates{", "dram.precharges{", "dram.refreshes{"} {
			if strings.HasPrefix(name, kind) {
				n += v
			}
		}
	}
	return n
}

// mergeDump adds histogram dump b into a (equal widths; a may be empty).
func mergeDump(a, b telemetry.HistogramDump) telemetry.HistogramDump {
	if a.N == 0 && len(a.Buckets) == 0 {
		b.Buckets = append([]uint64(nil), b.Buckets...)
		return b
	}
	for i := range b.Buckets {
		a.Buckets[i] += b.Buckets[i]
	}
	a.Over += b.Over
	a.Sum += b.Sum
	a.N += b.N
	a.Max = max(a.Max, b.Max)
	return a
}

// interpQuantile is the q-quantile of a dump, interpolated linearly inside
// its bucket, and false when fewer than minBeyond samples lie beyond it.
func interpQuantile(d telemetry.HistogramDump, q float64) (float64, bool) {
	target := q * float64(d.N)
	if d.N == 0 || float64(d.N)-target < minBeyond {
		return 0, false
	}
	cum := 0.0
	for i, c := range d.Buckets {
		if c > 0 && cum+float64(c) >= target {
			frac := (target - cum) / float64(c)
			return (float64(i) + frac) * float64(d.Width), true
		}
		cum += float64(c)
	}
	return float64(d.Max), true
}

// check reports simulated statistics that differed between repeats.
func (p *simPass) check() []error {
	errs := p.mismatch
	if p.sets < 2 {
		errs = append(errs, fmt.Errorf("job set ran %d times; the repeat check needs 2", p.sets))
	}
	return errs
}
