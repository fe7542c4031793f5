package main

import (
	"time"

	"sdimm/internal/config"
	"sdimm/internal/queueing"
)

// The workload constants below are frozen: the rates were measured once on
// a 2-vCPU host and are never re-derived per run, so two commits are always
// offered the same load. NOTES.md carries the same table with the
// predictions each workload exists to test.

// serveSpec is one open-loop serving workload: the server's configuration
// and the request stream offered to it.
type serveSpec struct {
	name string

	// Server shape.
	sdimms, levels, blockSize, window int
	ringA                             int // ring-eviction flush interval; 0 = Path ORAM
	durable                           bool
	ckptInterval                      int // accesses between checkpoints

	// Request stream.
	rate      float64        // mean offered requests per second
	mmpp      *queueing.MMPP // bursty arrivals; nil = Poisson
	slot      time.Duration  // MMPP slot length
	writeFrac float64
	space     uint64  // preloaded block address space
	hotFrac   float64 // share of requests sent to the hot set
	hotSet    uint64  // hot set size (addresses 0..hotSet-1)
	deadline  time.Duration
}

// steadyPath runs below saturation: about 1/8 of what this configuration
// sustains on the reference host (8.4k ok/s at 10k req/s offered). A request's time is
// wave-fill wait, wire and one wave, so the pipeline-fill and serve layers
// dominate and crypto is a small share; a batching or fill-timer change
// shows here.
var steadyPath = serveSpec{
	name:      "steady-path",
	sdimms:    4,
	levels:    12,
	blockSize: 128,
	window:    8,
	rate:      1000,
	writeFrac: 0.5,
	space:     1024,
	deadline:  250 * time.Millisecond,
}

// overloadMMPP is a 50µs-slot two-state MMPP with a stationary mean of 0.45
// arrivals per slot (9,000 req/s): a quarter of the time it bursts at 0.6
// per slot (12k req/s) for ~1.7ms on average, otherwise it runs at 0.4
// (8k req/s) for ~5ms. Even the lulls offer more than the server sustains
// (5-6.3k ok/s on the reference host, depending on how busy the machine's
// other guests are), so the admission queue stays at its depth limit and
// latency is set by that limit and the service rate. With 6k req/s lulls
// a fast run drained the queue in the lulls and a slow one did not, and
// p50 ranged from 6.6 to 9.7 ms across runs; at a 6k req/s mean, whose
// lulls ran at 3k req/s, it swung between 3.3 and 7 ms on an idle host.
var overloadMMPP = queueing.MMPP{LowRate: 0.4, HighRate: 0.6, PUp: 0.01, PDown: 0.03}

// overloadRingDurable offers 9k req/s, about 1.5-2 times the 5-6.3k ok/s
// this configuration sustains on the reference host, so goodput is set by the
// throughput-bound layers (bucket crypto, link seal/open, journal and
// checkpoint, admission) and admission must shed.
// The 2s deadline — batch clients — makes the queue-depth limit, not the
// deadline-feasibility estimate, the binding admission control, so the
// overload shedder is exercised (steady-path keeps 250ms and shows the
// feasibility shedder). Ring reads lift one block and defer eviction, so
// it drives oram differently from steadyPath, and it is the only workload
// where the durable layer works. Half the requests hit a 64-block hot set,
// so same-address conflicts split waves.
var overloadRingDurable = serveSpec{
	name:         "overload-ring-durable",
	sdimms:       4,
	levels:       12,
	blockSize:    128,
	window:       8,
	ringA:        4,
	durable:      true,
	ckptInterval: 256,
	rate:         9000,
	mmpp:         &overloadMMPP,
	slot:         50 * time.Microsecond,
	writeFrac:    0.9,
	space:        1024,
	hotFrac:      0.5,
	hotSet:       64,
	deadline:     2 * time.Second,
}

// simSpec is the timing-simulator workload.
type simSpec struct {
	name      string
	protocols []config.Protocol
	apps      []string
	channels  int
	// warmup and measure bound each simulation in LLC misses; they are
	// smaller than the paper's 1M/1M windows so a run repeats the whole
	// set more than once.
	warmup, measure int
}

// simPaper runs the simulator at the paper's Table II configuration. None
// of the functional-cluster layers runs here, so it is the no-change
// control for every crypto, pipeline, serve or durable change, and the
// only place a simulator speed-up shows.
var simPaper = simSpec{
	name:      "sim-paper",
	protocols: []config.Protocol{config.Freecursive, config.Independent, config.Split, config.Ring},
	apps:      []string{"mcf", "gromacs"},
	channels:  2,
	warmup:    200,
	measure:   800,
}

// simCPUHz converts simulated CPU cycles to time: Table II's core runs at
// 1.6 GHz against the 800 MHz DDR3-1600 command clock.
const simCPUHz = 1.6e9

// setupRepeats is how many times a run builds its set-up; setup_s reports
// the median so one slow build does not read as a regression.
const setupRepeats = 9

var serveWorkloads = []serveSpec{steadyPath, overloadRingDurable}
