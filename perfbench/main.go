// Command perfbench is the repository benchmark: open-loop serving at
// steady load and at durable overload, plus the paper's timing simulator.
// One run measures one workload from a seed, checks the outputs, and
// prints every metric by name with its unit; the last line of standard
// output is a JSON summary. A traced run (-trace 1) re-runs the same
// seeded workload with observers attached and replays its op stream into
// each layer's public functions, reporting per-layer metrics instead.
//
//	bash perfbench/run.sh --workload steady-path --seed 1 --seconds 15 --trace 0
//
// See NOTES.md for why each workload exists and what each metric should
// move.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"

	"sdimm/internal/serve"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// host is the envelope recorded with every result, so a number is never
// read without the machine it came from, and a late generator is flagged
// instead of being read as server latency.
type host struct {
	NumCPU     int     `json:"num_cpu"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	CPUModel   string  `json:"cpu_model"`
	Seed       uint64  `json:"seed"`
	LagP50MS   float64 `json:"gen_lag_p50_ms"`
	LagP99MS   float64 `json:"gen_lag_p99_ms"`
	LagMaxMS   float64 `json:"gen_lag_max_ms"`
	// GenLate is set when the generator's median lateness exceeds a tenth
	// of the latency median: a generator that cannot keep up is late on
	// most sends, and the latencies then partly measure it. Its tail
	// lateness mostly records host stalls, which delay the server alike.
	GenLate bool `json:"generator_late"`
	// CPUSeconds is the CPU the process used while measuring; StealFrac is
	// the machine's CPU share its hypervisor stole meanwhile (from
	// /proc/stat), the main source of noise on a shared host.
	CPUSeconds float64 `json:"cpu_seconds"`
	StealFrac  float64 `json:"steal_frac"`
	// Stolen is set when the hypervisor stole more than stolenFrac of the
	// machine's CPU over the window: its whole-window figures are slower
	// than the program, and its quiet slices may be too few to keep the
	// steal out of the end-to-end figures.
	Stolen bool `json:"stolen"`
	// QuietShare is the share of the serve window the end-to-end figures
	// were computed over (see quietSlices).
	QuietShare float64 `json:"quiet_share,omitempty"`
}

// stolenFrac is the window steal share above which a run is flagged. On
// the reference host a 30% share doubled steady-path's p50.
const stolenFrac = 0.10

// report is a run's full record, written to the results file.
type report struct {
	Workload  string            `json:"workload"`
	Seed      uint64            `json:"seed"`
	Seconds   int               `json:"seconds"`
	Traced    bool              `json:"traced"`
	Host      host              `json:"host"`
	Correct   bool              `json:"correct"`
	Errors    []string          `json:"errors,omitempty"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	Samples   map[string]int    `json:"samples,omitempty"`
	Notes     []string          `json:"notes,omitempty"`
	Outcomes  map[string]int    `json:"outcomes,omitempty"`
	Slices    []sliceRow        `json:"window_slices,omitempty"`
	// WholeWindow holds the serve latency, goodput and ok_frac figures
	// computed over the whole window rather than its quiet slices.
	WholeWindow metricSet   `json:"whole_window,omitempty"`
	SimStats    []simStats  `json:"sim_stats,omitempty"`
	SpanTotal   []spanTotal `json:"span_totals,omitempty"`
	Spans       []span      `json:"spans,omitempty"`
}

// summaryLine is the last line of standard output.
type summaryLine struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "steady-path, overload-ring-durable or sim-paper")
	seed := fs.Uint64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := fs.Int("seconds", 15, "seconds each measured pass offers load")
	traceFlag := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	outDir := fs.String("out", filepath.Join(".bench_build", "perfbench"), "directory for result files and run state")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintln(stderr, "perfbench: -seconds must be ≥ 1 and -trace 0 or 1")
		return 2
	}
	rep := &report{Workload: *workload, Seed: *seed, Seconds: *seconds, Traced: *traceFlag == 1}
	stateRoot := filepath.Join(*outDir, fmt.Sprintf("state-%s-%d-%d", *workload, *seed, os.Getpid()))
	defer os.RemoveAll(stateRoot)

	var err error
	dur := time.Duration(*seconds) * time.Second
	if spec, ok := serveSpecByName(*workload); ok {
		err = runServe(rep, spec, dur, stateRoot)
	} else if *workload == simPaper.name {
		err = runSim(rep, dur)
	} else {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q\n", *workload)
		return 2
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *workload, err)
		return 1
	}
	for name, m := range rep.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			rep.noteErrors(fmt.Errorf("metric %s is %v", name, m.Value))
			rep.Metrics[name] = metric{Unit: m.Unit}
		}
	}
	rep.Correct = len(rep.Errors) == 0
	rep.Host.NumCPU, rep.Host.GOMAXPROCS = runtime.NumCPU(), runtime.GOMAXPROCS(0)
	rep.Host.GoVersion, rep.Host.CPUModel, rep.Host.Seed = runtime.Version(), cpuModel(), *seed
	rep.Host.Stolen = rep.Host.StealFrac > stolenFrac

	printReport(stdout, rep)
	path := filepath.Join(*outDir, fmt.Sprintf("%s-seed%d-trace%d.json", *workload, *seed, *traceFlag))
	if err := writeJSON(path, rep); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "results: %s\n", path)
	line, err := json.Marshal(summaryLine{Correct: rep.Correct, Attempted: rep.Attempted, Failed: rep.Failed, Metrics: rep.Metrics})
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !rep.Correct {
		return 1
	}
	return 0
}

func serveSpecByName(name string) (serveSpec, bool) {
	for _, s := range serveWorkloads {
		if s.name == name {
			return s, true
		}
	}
	return serveSpec{}, false
}

// runServe measures a serve workload. Untraced: one pass, end-to-end
// metrics. Traced: an untraced pass (the overhead baseline), a traced
// pass, and the per-layer replays.
func runServe(rep *report, spec serveSpec, dur time.Duration, stateRoot string) error {
	u, err := runServePass(spec, rep.Seed, dur, filepath.Join(stateRoot, "untraced"), nil)
	if err != nil {
		return err
	}
	ue2e, whole, samples, rows, err := serveEndToEnd(u)
	if err != nil {
		return err
	}
	rep.noteFailures(u.check())
	s := u.summary()
	rep.Attempted = s.offered
	rep.Outcomes = map[string]int{"unanswered": s.lost}
	for _, o := range u.out {
		if o.answered() {
			rep.Outcomes[serve.StatusString(o.status)]++
		}
	}
	rep.Host.LagP50MS, _ = percentile(s.lagMS, 0.50)
	rep.Host.LagP99MS, _ = percentile(s.lagMS, 0.99)
	rep.Host.LagMaxMS = s.lagMS[len(s.lagMS)-1]
	rep.Host.GenLate = rep.Host.LagP50MS > ue2e["lat_p50_ms"]/10
	rep.Host.CPUSeconds, rep.Host.StealFrac = u.cpuS, u.stealFrac
	for _, r := range rows {
		if r.Used {
			rep.Host.QuietShare += 1 / float64(len(rows))
		}
	}
	if !rep.Traced {
		rep.Metrics, rep.Samples, rep.Slices, rep.WholeWindow = ue2e.fill(endToEnd), samples, rows, whole
		return nil
	}

	rec := newRecorder()
	t, err := runServePass(spec, rep.Seed, dur, filepath.Join(stateRoot, "traced"), rec)
	if err != nil {
		return err
	}
	rep.noteFailures(t.check())
	te2e, _, _, _, err := serveEndToEnd(t)
	if err != nil {
		return err
	}
	layers, err := replayLayers(t, rep.Seed, filepath.Join(stateRoot, "replay"), rec)
	if err != nil {
		return err
	}
	rep.noteErrors(layers.readErrs...)
	if spec.durable && layers.recoveredSeq != t.committedSeq {
		rep.noteErrors(fmt.Errorf("recovery rebuilt %d committed accesses, the server committed %d", layers.recoveredSeq, t.committedSeq))
	}
	m, notes := serveLayerMetrics(t, layers)
	m["trace.overhead_lat_p50_frac"] = te2e["lat_p50_ms"]/ue2e["lat_p50_ms"] - 1
	m["trace.overhead_throughput_frac"] = 1 - te2e["goodput_per_s"]/ue2e["goodput_per_s"]
	rep.Metrics, rep.Notes = m.fill(perLayer), notes
	rep.SpanTotal, rep.Spans = rec.totals(), rec.spans
	return nil
}

// stealSlice is the length of the slices the serve window is cut into to
// see where the hypervisor took the machine's CPUs. A shared host loses its
// CPUs to other guests in episodes, and a request caught in one is slower
// by the time its wave waited for a CPU: on the reference host steady-path's
// whole-window p99 rose by about 0.5 ms per 1% of the machine stolen,
// while its p99 over the slices with no steal stayed within 3% across runs.
const stealSlice = 250 * time.Millisecond

// minQuietShare and minQuietWindow bound the part of the window the serve
// end-to-end figures are computed over from below: at least a tenth of the
// window and at least two seconds of it (all of a shorter window). The floor
// is low because a slice whose steal counter moved by a single tick already
// reads slower: steady-path's p99 was 7.2 ms over the unstolen slices of a
// run and 8.6 ms over its one-tick slices.
const (
	minQuietShare  = 0.1
	minQuietWindow = 2 * time.Second
)

// slicesFor returns how many slices a window of dur is cut into.
func slicesFor(dur time.Duration) int {
	return max(1, int(dur/stealSlice))
}

// quietSlices picks the window slices the serve end-to-end figures are
// computed over: every slice in which the machine's steal counter did not
// move (all of them where the host reports no steal), and, when those
// cover less than the minimum, the least-stolen others up to it.
func quietSlices(steal []float64, slice time.Duration) []bool {
	n := len(steal)
	use := make([]bool, n)
	used := 0
	for k := range use {
		if steal[k] == 0 {
			use[k] = true
			used++
		}
	}
	need := min(n, max(int(math.Ceil(minQuietShare*float64(n))), int(minQuietWindow/slice)))
	order := make([]int, n)
	for k := range order {
		order[k] = k
	}
	sort.SliceStable(order, func(a, b int) bool { return steal[order[a]] < steal[order[b]] })
	for _, k := range order {
		if used >= need {
			break
		}
		if !use[k] {
			use[k] = true
			used++
		}
	}
	return use
}

// sliceRow is one window slice: the machine's steal share during it, the
// requests whose intended send time falls in it, and whether the
// end-to-end figures use it.
type sliceRow struct {
	Steal   float64 `json:"steal_frac"`
	Offered int     `json:"offered"`
	OK      int     `json:"ok"`
	Used    bool    `json:"used"`
}

// serveEndToEnd computes a pass's end-to-end metrics. Latency, goodput and
// ok_frac pool the requests intended to be sent in the quiet slices (see
// quietSlices); whole holds the same figures over the whole window, for the
// results file. host_ops_per_s is the host's efficiency: OK responses per
// CPU second the process (server and generator) spent over the window.
func serveEndToEnd(p *servePass) (m, whole metricSet, samples map[string]int, rows []sliceRow, err error) {
	s := p.summary()
	n := len(p.sliceSteal)
	slice := p.dur / time.Duration(n)
	use := quietSlices(p.sliceSteal, slice)
	rows = make([]sliceRow, n)
	var quietLat, allLat []float64
	for i, o := range p.out {
		k := min(int(p.ops[i].at/slice), n-1)
		rows[k].Offered++
		if !o.answered() || o.status != serve.StatusOK {
			continue
		}
		rows[k].OK++
		l := float64(o.recv-int64(p.ops[i].at)) / 1e6
		allLat = append(allLat, l)
		if use[k] {
			quietLat = append(quietLat, l)
		}
	}
	var quietOffered, quietOK int
	var quietS float64
	for k := range rows {
		rows[k].Used, rows[k].Steal = use[k], p.sliceSteal[k]
		if use[k] {
			quietOffered += rows[k].Offered
			quietOK += rows[k].OK
			quietS += slice.Seconds()
		}
	}
	figures := func(lat []float64, offered, ok int, seconds float64) (metricSet, error) {
		sort.Float64s(lat)
		p50, ok50 := percentile(lat, 0.50)
		p99, ok99 := percentile(lat, 0.99)
		if !ok50 || !ok99 {
			return nil, fmt.Errorf("%d OK responses are too few for a p99 with %d samples beyond it", len(lat), minBeyond)
		}
		return metricSet{"lat_p50_ms": p50, "lat_p99_ms": p99, "goodput_per_s": float64(ok) / seconds, "ok_frac": float64(ok) / float64(offered)}, nil
	}
	if m, err = figures(quietLat, quietOffered, quietOK, quietS); err != nil {
		return nil, nil, nil, nil, err
	}
	if whole, err = figures(allLat, s.offered, s.ok, p.dur.Seconds()); err != nil {
		return nil, nil, nil, nil, err
	}
	m["host_ops_per_s"] = float64(s.ok) / p.cpuS
	m["setup_s"] = median(append([]float64(nil), p.setupS...))
	m["max_rss_mb"] = maxRSSMB()
	samples = map[string]int{"lat_p50_ms": len(quietLat), "lat_p99_ms": len(quietLat), "setup_s": len(p.setupS)}
	return m, whole, samples, rows, nil
}

// serveLayerMetrics computes a traced serve pass's per-layer metrics.
func serveLayerMetrics(t *servePass, l *layerReport) (metricSet, []string) {
	s := t.summary()
	offered := float64(s.offered)
	accesses := float64(t.counterDelta("cluster.accesses"))
	m := metricSet{}
	m["gen.lag_p99_ms"], _ = percentile(s.lagMS, 0.99)
	m["gen.lag_max_ms"] = s.lagMS[len(s.lagMS)-1]

	clientP50, _ := percentile(s.latMS, 0.5)
	m["serve.server_p50_us"], _ = histQuantile(t.latHist, 0.5)
	m["serve.server_p99_us"], _ = histQuantile(t.latHist, 0.99)
	m["serve.wire_p50_us"] = clientP50*1e3 - m["serve.server_p50_us"]
	m["serve.shed_overload_frac"] = float64(t.counterDelta("serve.shed{reason=overload")) / offered
	m["serve.shed_deadline_frac"] = float64(t.counterDelta("serve.shed{reason=deadline")) / offered
	m["serve.fail_frac"] = 1 - float64(s.ok)/offered
	m["serve.queue_peak"] = float64(t.slo.QueuePeak)
	m["serve.backpressure_per_kop"] = float64(t.counterDelta("serve.backpressure")) / offered * 1000

	m["pipeline.serve_p50_us"], _ = percentile(l.pipelineUS, 0.5)
	m["pipeline.serve_p99_us"], _ = percentile(l.pipelineUS, 0.99)
	var waveOps float64
	for _, n := range t.waveOps {
		waveOps += float64(n)
	}
	m["pipeline.ops_per_wave"] = waveOps / float64(max(len(t.waveOps), 1))
	for _, ph := range t.blameWin.Phases {
		m["pipeline.share."+ph.Phase] = ph.Share
	}
	m["pipeline.serialized_share"] = t.blameWin.SerializedShare
	if t.blameWin.Ops > 0 {
		m["pipeline.worker_busy_us_per_op"] = float64(t.blameWin.AccessBusyNS+t.blameWin.AppendBusyNS) / float64(t.blameWin.Ops) / 1e3
	}

	m["cluster.access_us"] = l.clusterUS
	m["cluster.bucket_writes_per_access"] = l.bucketWritesPerAccess
	m["fault.exchanges_per_access"] = l.exchangesPerAccess
	m["fault.retries"] = float64(t.retries)

	frames, bytes := t.tap.totals()
	m["seccomm.seal_open_ns"] = l.sealOpenNS
	m["seccomm.frames_per_access"] = float64(frames) / accesses
	m["seccomm.bytes_per_access"] = float64(bytes) / accesses

	m["oram.access_us"] = l.oramUS

	notes := []string{"sim.*: 0 because the timing simulator does not run on serve workloads"}
	if t.spec.durable {
		ckpts := float64(t.counterDelta("cluster.checkpoints"))
		m["durable.append_us"] = l.appendUS
		m["durable.checkpoint_ms"] = l.checkpointMS
		m["durable.checkpoints_per_kop"] = ckpts / accesses * 1000
		m["durable.bytes_per_access"] = l.journalBytesPerRecord + l.checkpointBytes*ckpts/accesses
		m["durable.recover_ms"] = l.recoverMS
	} else {
		notes = append(notes, "durable.*: 0 because "+t.spec.name+" serves from memory with no durability")
	}
	return m, notes
}

// runSim measures sim-paper: end-to-end metrics untraced; traced, an
// untraced pass (the overhead baseline) and an instrumented pass.
func runSim(rep *report, dur time.Duration) error {
	u, err := runSimPass(simPaper, rep.Seed, dur, nil)
	if err != nil {
		return err
	}
	rep.noteErrors(u.check()...)
	ue2e, samples, err := simEndToEnd(u)
	if err != nil {
		return err
	}
	rep.Attempted = u.sets * len(u.stats)
	rep.SimStats = u.stats
	rep.Host.CPUSeconds, rep.Host.StealFrac = u.cpuS, u.stealFrac
	if !rep.Traced {
		rep.Metrics, rep.Samples = ue2e.fill(endToEnd), samples
		rep.Notes = []string{"lat_p50_ms, lat_p99_ms and goodput_per_s are the modelled system's, in simulated time at 1.6 GHz; host_ops_per_s is the simulator's own speed, in misses per process CPU second"}
		return nil
	}
	rec := newRecorder()
	t, err := runSimPass(simPaper, rep.Seed, dur, rec)
	if err != nil {
		return err
	}
	rep.noteErrors(t.check()...)
	for i := range t.stats {
		if t.stats[i] != u.stats[i] {
			rep.noteErrors(fmt.Errorf("%s: traced run %+v, untraced %+v", t.stats[i].Job, t.stats[i], u.stats[i]))
		}
	}
	te2e, _, err := simEndToEnd(t)
	if err != nil {
		return err
	}
	m := metricSet{}
	var firstSetS float64
	var misses uint64
	for _, p := range simPaper.protocols {
		m["sim."+p.String()+"_s"] = median(append([]float64(nil), t.protoS[p.String()]...))
		firstSetS += t.protoS[p.String()][0]
	}
	for _, st := range t.stats {
		misses += st.LLCMisses
	}
	m["sim.host_ns_per_dram_cmd"] = firstSetS * 1e9 / float64(t.dramCmds)
	m["sim.dram_cmds_per_miss"] = float64(t.dramCmds) / float64(misses)
	m["trace.overhead_lat_p50_frac"] = te2e["lat_p50_ms"]/ue2e["lat_p50_ms"] - 1
	m["trace.overhead_throughput_frac"] = 1 - te2e["host_ops_per_s"]/ue2e["host_ops_per_s"]
	rep.Metrics = m.fill(perLayer)
	rep.Notes = []string{
		"gen.*, serve.*, pipeline.*, cluster.*, fault.*, seccomm.*, oram.*, durable.*: 0 because no functional-cluster layer runs on sim-paper",
		"trace.overhead_lat_p50_frac compares simulated latency, which tracing cannot change; trace.overhead_throughput_frac compares host misses per second",
	}
	rep.SpanTotal, rep.Spans = rec.totals(), rec.spans
	return nil
}

// simEndToEnd computes sim-paper's end-to-end metrics. Latency and goodput
// are the modelled system's (simulated time at simCPUHz) pooled over the
// job set; host_ops_per_s is the simulator's own speed, the median over
// sets of measured misses simulated per process CPU second (CPU time, so
// CPU the hypervisor steals from the guest does not read as a slowdown).
func simEndToEnd(p *simPass) (metricSet, map[string]int, error) {
	p50, ok50 := interpQuantile(p.latency, 0.50)
	p99, ok99 := interpQuantile(p.latency, 0.99)
	if !ok50 || !ok99 {
		return nil, nil, fmt.Errorf("%d simulated misses are too few for a p99 with %d samples beyond it", p.latency.N, minBeyond)
	}
	var misses, cycles uint64
	for _, st := range p.stats {
		misses += st.LLCMisses
		cycles += st.MeasuredCycles
	}
	runs := p.sets * len(p.stats)
	m := metricSet{
		"lat_p50_ms":     p50 / simCPUHz * 1e3,
		"lat_p99_ms":     p99 / simCPUHz * 1e3,
		"goodput_per_s":  float64(misses) / (float64(cycles) / simCPUHz),
		"ok_frac":        float64(runs-len(p.mismatch)) / float64(runs),
		"host_ops_per_s": median(append([]float64(nil), p.setRate...)),
		"setup_s":        median(append([]float64(nil), p.setupS...)),
		"max_rss_mb":     maxRSSMB(),
	}
	samples := map[string]int{"lat_p50_ms": int(p.latency.N), "lat_p99_ms": int(p.latency.N), "setup_s": len(p.setupS), "sim_job_sets": p.sets}
	return m, samples, nil
}

// noteErrors records failed checks; each counts as one failed operation.
func (rep *report) noteErrors(errs ...error) {
	for _, err := range errs {
		rep.Errors = append(rep.Errors, err.Error())
	}
	rep.Failed += len(errs)
}

// noteFailures records a serve pass's failed checks and its count of
// failed operations.
func (rep *report) noteFailures(errs []error, failed int) {
	for _, err := range errs {
		rep.Errors = append(rep.Errors, err.Error())
	}
	rep.Failed += failed
}

// maxRSSMB is the process's peak resident set size.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

// cpuModel reads the CPU model name, or "unknown" off Linux.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// printReport writes the human-readable report: every metric by name with
// its unit (and sample count where it has one), the host envelope, notes
// and any failed check.
func printReport(w io.Writer, rep *report) {
	fmt.Fprintf(w, "perfbench %s seed=%d seconds=%d trace=%t\n", rep.Workload, rep.Seed, rep.Seconds, rep.Traced)
	names := make([]string, 0, len(rep.Metrics))
	for n := range rep.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := rep.Metrics[n]
		line := fmt.Sprintf("  %-34s %14.6g %s", n, m.Value, m.Unit)
		if c, ok := rep.Samples[n]; ok {
			line += fmt.Sprintf("  (n=%d)", c)
		}
		fmt.Fprintln(w, line)
	}
	if o := rep.Outcomes; o != nil {
		fmt.Fprintf(w, "  %-34s %14.6g frac  (whole window: %d offered, %d ok, %d shed, %d deadline, %d error, %d unanswered)\n",
			"fail_frac", 1-float64(o["ok"])/float64(rep.Attempted), rep.Attempted, o["ok"], o["shed"], o["deadline"], o["error"], o["unanswered"])
	}
	h := rep.Host
	fmt.Fprintf(w, "host: num_cpu=%d gomaxprocs=%d go=%s cpu=%q seed=%d cpu_s=%.2f steal=%.3f stolen=%t\n",
		h.NumCPU, h.GOMAXPROCS, h.GoVersion, h.CPUModel, h.Seed, h.CPUSeconds, h.StealFrac, h.Stolen)
	if rep.WholeWindow != nil {
		ww := rep.WholeWindow
		fmt.Fprintf(w, "window: quiet_share=%.2f; whole window: lat_p50=%.3fms lat_p99=%.3fms goodput=%.1f/s ok_frac=%.4f\n",
			h.QuietShare, ww["lat_p50_ms"], ww["lat_p99_ms"], ww["goodput_per_s"], ww["ok_frac"])
	}
	if rep.Workload != simPaper.name {
		fmt.Fprintf(w, "generator: lag_p50=%.3fms lag_p99=%.3fms lag_max=%.3fms late=%t\n", h.LagP50MS, h.LagP99MS, h.LagMaxMS, h.GenLate)
	}
	for _, st := range rep.SimStats {
		fmt.Fprintf(w, "sim %-22s cycles=%d misses=%d host_bytes=%d on_dimm_bytes=%d access_orams=%d\n",
			st.Job, st.MeasuredCycles, st.LLCMisses, st.HostBytes, st.LocalBytes, st.AccessORAMs)
	}
	for _, n := range rep.Notes {
		fmt.Fprintf(w, "note: %s\n", n)
	}
	for _, e := range rep.Errors {
		fmt.Fprintf(w, "CHECK FAILED: %s\n", e)
	}
	fmt.Fprintf(w, "attempted=%d failed=%d correct=%t\n", rep.Attempted, rep.Failed, rep.Correct)
}

// writeJSON writes v to path through a temporary file and a rename.
func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	err = json.NewEncoder(bw).Encode(v)
	err = errors.Join(err, bw.Flush(), f.Close())
	if err != nil {
		os.Remove(tmp)
		return fmt.Errorf("write %s: %w", path, err)
	}
	return os.Rename(tmp, path)
}
